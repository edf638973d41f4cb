package repro.graph

/** Seeded synthetic graph generators substituting for the paper's data
  * graphs (Table 3). Power-law endpoint sampling reproduces the skew that
  * drives GPM cost; labeled variants (zipf label distribution) back FSM.
  * Generation happens on the driver (graphs here are <= ~1M edges) and is
  * fully deterministic in (params, seed).
  */
object SynthGraphs {

  /** Power-law graph: endpoints drawn from a zipf(alpha) distribution over
    * vertex ids, rejected on self-loops/duplicates until `targetEdges`
    * distinct undirected edges exist (or the attempt budget runs out —
    * duplicates become likelier as density rises).
    *
    * Larger `alpha` = heavier skew = larger max degree.
    *
    * Real social graphs also have high clustering and dense pockets, which
    * drive triangle/clique-heavy workloads (and the paper's OoM cells):
    * `closure` is the fraction of edges created by triadic closure
    * (Holme–Kim style) and `plantCliques` embeds dense cliques on random
    * vertex sets (LiveJournal famously contains very large cliques).
    */
  def powerLaw(n: Int, targetEdges: Int, alpha: Double, seed: Long,
               numLabels: Int = 0, labelAlpha: Double = 1.2,
               closure: Double = 0.0, plantCliques: Seq[Int] = Nil): CSRGraph = {
    require(targetEdges <= n.toLong * (n - 1) / 2, "too many edges requested")
    val rnd = new java.util.Random(seed)
    // Inverse-CDF table for zipf over n ranks.
    val cdf = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += 1.0 / math.pow((i + 1).toDouble, alpha); cdf(i) = acc; i += 1 }
    val total = acc
    def draw(): Int = {
      val x = rnd.nextDouble() * total
      val idx = java.util.Arrays.binarySearch(cdf, x)
      if (idx >= 0) idx else math.min(n - 1, -idx - 1)
    }
    val set = new java.util.HashSet[Long](targetEdges * 2)
    val edgeList = new scala.collection.mutable.ArrayBuffer[Long](targetEdges)
    val adj = scala.collection.mutable.HashMap.empty[Int, scala.collection.mutable.ArrayBuffer[Int]]
    def addEdge(a: Int, b: Int): Boolean = {
      if (a == b) return false
      val u = math.min(a, b); val v = math.max(a, b)
      val key = (u.toLong << 32) | v.toLong
      if (!set.add(key)) return false
      edgeList += key
      adj.getOrElseUpdate(u, new scala.collection.mutable.ArrayBuffer[Int]) += v
      adj.getOrElseUpdate(v, new scala.collection.mutable.ArrayBuffer[Int]) += u
      true
    }
    // dense pockets first
    for (size <- plantCliques) {
      val verts = Array.fill(size)(rnd.nextInt(n))
      val distinct = verts.distinct
      for (x <- distinct.indices; y <- x + 1 until distinct.length if set.size < targetEdges)
        addEdge(distinct(x), distinct(y))
    }
    var attempts = 0L
    val maxAttempts = targetEdges.toLong * 30
    while (set.size < targetEdges && attempts < maxAttempts) {
      if (closure > 0 && edgeList.nonEmpty && rnd.nextDouble() < closure) {
        // triadic closure: close a random wedge a-b, a-c
        val e = edgeList(rnd.nextInt(edgeList.length))
        val a = if (rnd.nextBoolean()) (e >>> 32).toInt else (e & 0xffffffffL).toInt
        val b = if (((e >>> 32).toInt) == a) (e & 0xffffffffL).toInt else (e >>> 32).toInt
        val nbrsA = adj(a)
        val c = nbrsA(rnd.nextInt(nbrsA.length))
        addEdge(b, c)
      } else {
        addEdge(draw(), draw())
      }
      attempts += 1
    }
    // Decouple vertex id from degree rank: real graph ids are arbitrary,
    // and id-ordered symmetry bounds must not accidentally behave like
    // degree orientation.
    val perm = {
      val p = Array.range(0, n)
      var x = n - 1
      while (x > 0) { val y = rnd.nextInt(x + 1); val t = p(x); p(x) = p(y); p(y) = t; x -= 1 }
      p
    }
    val edges = new Array[(Int, Int)](set.size)
    val it = set.iterator()
    var o = 0
    while (it.hasNext) {
      val e = it.next()
      edges(o) = (perm((e >>> 32).toInt), perm((e & 0xffffffffL).toInt)); o += 1
    }
    val labels =
      if (numLabels <= 0) Array.empty[Int]
      else {
        val lrnd = new java.util.Random(seed ^ 0x5deece66dL)
        val lcdf = new Array[Double](numLabels)
        var lacc = 0.0
        var j = 0
        while (j < numLabels) { lacc += 1.0 / math.pow((j + 1).toDouble, labelAlpha); lcdf(j) = lacc; j += 1 }
        Array.fill(n) {
          val x = lrnd.nextDouble() * lacc
          val idx = java.util.Arrays.binarySearch(lcdf, x)
          if (idx >= 0) idx else math.min(numLabels - 1, -idx - 1)
        }
      }
    CSRGraph.fromEdges(n, edges.toIndexedSeq, labels)
  }
}

/** Named analogs of the paper's Table 3 data graphs at ~1/1000 scale.
  * Relative size and skew orderings are preserved (Lj < Or < Fr < Tw2 <
  * Tw4 by difficulty; the Tw and Uk analogs are heavy-tailed, Fr is big
  * but low-skew).
  * The scale substitution is documented in EXPERIMENTS.md.
  */
object DataGraphs {
  /** Paper-reported graph statistics (Table 3), used by the cost model to
    * evaluate memory footprints at the paper's scale.
    */
  final case class PaperStats(v: Double, e: Double, maxDeg: Double)

  final case class Spec(name: String, n: Int, e: Int, alpha: Double, labels: Int, seed: Long,
                        closure: Double, cliques: Seq[Int], paper: PaperStats)

  val lj: Spec = Spec("Lj", 4800, 43000, 0.90, 0, 101, 0.30, Seq.fill(15)(45),
    PaperStats(4.8e6, 43e6, 20333))
  val or: Spec = Spec("Or", 3100, 80000, 0.72, 0, 102, 0.20, Seq.fill(12)(42),
    PaperStats(3.1e6, 117e6, 33313))
  val tw2: Spec = Spec("Tw2", 10000, 200000, 0.82, 0, 103, 0.10, Nil,
    PaperStats(21e6, 530e6, 698112))
  val tw4: Spec = Spec("Tw4", 16000, 380000, 0.84, 0, 104, 0.10, Nil,
    PaperStats(42e6, 2405e6, 2997487))
  val fr: Spec = Spec("Fr", 22000, 260000, 0.45, 0, 105, 0.35, Seq.fill(12)(35),
    PaperStats(66e6, 3612e6, 5214))
  val uk: Spec = Spec("Uk", 40000, 420000, 0.85, 0, 106, 0.10, Nil,
    PaperStats(106e6, 6603e6, 975419))
  val mi: Spec = Spec("Mi", 800, 4000, 0.45, 29, 107, 0.20, Nil,
    PaperStats(0.1e6, 2e6, 1359))
  val pa: Spec = Spec("Pa", 2000, 7000, 0.5, 37, 108, 0.0, Nil,
    PaperStats(3e6, 28e6, 789))
  val yo: Spec = Spec("Yo", 4000, 14000, 0.45, 28, 109, 0.05, Nil,
    PaperStats(7e6, 114e6, 4017))

  private val cache = scala.collection.concurrent.TrieMap.empty[String, CSRGraph]

  def build(s: Spec): CSRGraph =
    cache.getOrElseUpdate(s.name,
      SynthGraphs.powerLaw(s.n, s.e, s.alpha, s.seed, s.labels, closure = s.closure, plantCliques = s.cliques))
}
