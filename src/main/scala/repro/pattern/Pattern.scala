package repro.pattern

/** A small undirected query pattern on vertices `0 until n` (n <= 8).
  *
  * Adjacency is a bitmask per vertex so isomorphism / automorphism
  * machinery can brute-force permutations cheaply. Optional vertex labels
  * support FSM patterns.
  */
final case class Pattern(n: Int, adj: Vector[Int], labels: Option[Vector[Int]] = None) {
  require(n >= 1 && n <= 8, s"pattern size $n out of range (1..8)")
  require(adj.length == n, "adjacency mask per vertex required")
  require(adj.zipWithIndex.forall { case (m, v) => (m & (1 << v)) == 0 }, "no self loops")
  require((0 until n).forall(u => (0 until n).forall(v => isEdge(u, v) == isEdge(v, u))),
    "pattern must be undirected")
  labels.foreach(ls => require(ls.length == n, "one label per vertex"))

  def isEdge(u: Int, v: Int): Boolean = (adj(u) & (1 << v)) != 0

  def degree(v: Int): Int = Integer.bitCount(adj(v))

  def neighbors(v: Int): Vector[Int] = (0 until n).filter(isEdge(v, _)).toVector

  /** Undirected edges as (u, v) with u < v. */
  def edges: Vector[(Int, Int)] =
    (for { u <- 0 until n; v <- u + 1 until n if isEdge(u, v) } yield (u, v)).toVector

  def numEdges: Int = edges.length

  def isClique: Boolean = (0 until n).forall(v => degree(v) == n - 1)

  /** Hub vertices are connected to every other pattern vertex (§5.4 (2)). */
  def hubVertices: Vector[Int] = (0 until n).filter(v => degree(v) == n - 1).toVector

  def isConnected: Boolean = {
    if (n == 1) return true
    var seen = 1 // bit set of reached vertices, start from 0
    var frontier = 1
    while (frontier != 0) {
      var next = 0
      var f = frontier
      while (f != 0) {
        val v = Integer.numberOfTrailingZeros(f)
        f &= f - 1
        next |= adj(v) & ~seen
      }
      seen |= next
      frontier = next
    }
    Integer.bitCount(seen) == n
  }

  /** All isomorphisms onto `b`: permutations `phi` mapping vertex i of
    * this pattern to vertex `phi(i)` of `b`, preserving adjacency and
    * labels. Empty when the patterns are not isomorphic.
    */
  def isomorphismsTo(b: Pattern): Vector[Vector[Int]] =
    if (b.n != n) Vector.empty
    else (0 until n).toVector.permutations.filter { phi =>
      (0 until n).forall { u =>
        labels.map(_(u)) == b.labels.map(_(phi(u))) &&
          (u + 1 until n).forall(v => isEdge(u, v) == b.isEdge(phi(u), phi(v)))
      }
    }.toVector

  /** All vertex permutations preserving adjacency (and labels). */
  def automorphisms: Vector[Vector[Int]] = isomorphismsTo(this)

  /** Canonical code: minimum upper-triangle bitstring (plus labels) over all
    * permutations. Two patterns are isomorphic iff codes are equal.
    */
  def canonicalCode: String = {
    def code(p: Vector[Int]): String = {
      val bits = new StringBuilder
      for (u <- 0 until n; v <- u + 1 until n)
        bits.append(if (isEdge(p(u), p(v))) '1' else '0')
      val lbl = labels.map(ls => ":" + p.map(ls).mkString(",")).getOrElse("")
      s"$n|${bits.result()}$lbl"
    }
    (0 until n).toVector.permutations.map(code).min
  }

  def isomorphicTo(other: Pattern): Boolean =
    n == other.n && canonicalCode == other.canonicalCode

  /** Permute vertices: vertex v of the result is vertex `perm(v)` of this. */
  def permuted(perm: Vector[Int]): Pattern = {
    val inv = new Array[Int](n)
    perm.zipWithIndex.foreach { case (old, nw) => inv(old) = nw }
    val newAdj = (0 until n).toVector.map { v =>
      var m = 0
      for (u <- neighbors(perm(v))) m |= 1 << inv(u)
      m
    }
    Pattern(n, newAdj, labels.map(ls => perm.map(ls)))
  }

  /** Add an undirected edge; endpoints may extend n by one (new vertex). */
  def withEdge(u: Int, v: Int): Pattern = {
    val m = math.max(u, v)
    require(m <= n, "can extend by at most one new vertex")
    val nn = math.max(n, m + 1)
    val base = if (nn == n) adj else adj :+ 0
    val a = base.updated(u, base(u) | (1 << v)).updated(v, base(v) | (1 << u))
    Pattern(nn, a, labels.map(ls => if (nn == n) ls else ls :+ -1))
  }

  override def toString: String =
    s"Pattern(n=$n, edges=${edges.mkString("{", ",", "}")}${labels.map(l => s", labels=$l").getOrElse("")})"
}

/** Catalog of patterns used across the paper's benchmarks. */
object Patterns {
  def fromEdges(n: Int, es: Seq[(Int, Int)], labels: Option[Vector[Int]] = None): Pattern = {
    val adj = Array.fill(n)(0)
    es.foreach { case (u, v) =>
      require(u != v && u < n && v < n, s"bad edge ($u,$v) for n=$n")
      adj(u) |= 1 << v; adj(v) |= 1 << u
    }
    Pattern(n, adj.toVector, labels)
  }

  val wedge: Pattern    = fromEdges(3, Seq((0, 1), (0, 2)))
  val triangle: Pattern = clique(3)

  /** Diamond: two triangles sharing an edge (4-clique minus one edge). */
  val diamond: Pattern = fromEdges(4, Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))

  val cycle4: Pattern = fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (3, 0)))

  val tailedTriangle: Pattern = fromEdges(4, Seq((0, 1), (0, 2), (1, 2), (0, 3)))

  /** Star with k-1 leaves around vertex 0 (3-star = claw for k=4). */
  def star(k: Int): Pattern = fromEdges(k, (1 until k).map(v => (0, v)))

  /** Simple path on k vertices (k-1 edges). */
  def path(k: Int): Pattern = fromEdges(k, (0 until k - 1).map(v => (v, v + 1)))

  def clique(k: Int): Pattern =
    fromEdges(k, for { u <- 0 until k; v <- u + 1 until k } yield (u, v))

  /** All connected k-vertex patterns up to isomorphism (the k-motifs,
    * Fig. 3): 2 for k=3, 6 for k=4, 21 for k=5. Deterministic order
    * (ascending edge count, then canonical code).
    */
  def motifs(k: Int): Vector[Pattern] = {
    require(k >= 3 && k <= 5, "motif generation supported for k in 3..5")
    val pairs = (for { u <- 0 until k; v <- u + 1 until k } yield (u, v)).toVector
    val seen = scala.collection.mutable.LinkedHashMap.empty[String, Pattern]
    for (mask <- 0 until (1 << pairs.length)) {
      val es = pairs.zipWithIndex.collect { case (e, i) if (mask & (1 << i)) != 0 => e }
      if (es.length >= k - 1) {
        val p = fromEdges(k, es)
        if (p.isConnected) {
          val c = p.canonicalCode
          if (!seen.contains(c)) seen(c) = p
        }
      }
    }
    seen.values.toVector.sortBy(p => (p.numEdges, p.canonicalCode))
  }
}
