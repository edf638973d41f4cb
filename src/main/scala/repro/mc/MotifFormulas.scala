package repro.mc

import org.apache.spark.sql.SparkSession
import repro.graph.CSRGraph
import repro.pattern.{Pattern, Patterns}
import repro.sched.Scheduler
import repro.setops.{ListBitmap, SetOps, WorkCounter}

/** Counting-only pruning via pattern decomposition (optimization D, §5.4):
  * instead of enumerating k-vertex subgraphs, count them from cheaper
  * primitives — per-edge triangle counts, degree moments, common-neighbor
  * pair statistics and 4-clique enumeration — then convert *non-induced*
  * counts to *induced* motif counts with an inversion matrix that is
  * derived and exactly inverted in code (ESCAPE-style [82]). Two
  * primitives run on Spark with the engine's round-robin placement over
  * the broadcast CSR: 4-cycles in a shuffle-free pass and 4-cliques by
  * `DfsEngine.run`. The per-edge triangle primitives and the degree
  * moments run in the calling thread.
  */
object MotifFormulas {

  /** M(i)(j) = number of spanning subgraphs of motif i isomorphic to
    * motif j; N = Mᵀ·I relates non-induced (N) and induced (I) counts.
    * M is unit lower-triangular when motifs are sorted by edge count, so
    * the inverse transform is exact integer back-substitution.
    */
  def conversionMatrix(motifs: Vector[Pattern]): Vector[Vector[Long]] = {
    val k = motifs.head.n
    require(motifs.forall(_.n == k))
    motifs.map { mi =>
      val pairs = mi.edges
      motifs.map { mj =>
        var cnt = 0L
        for (mask <- 0 until (1 << pairs.length)) {
          val es = pairs.zipWithIndex.collect { case (e, x) if (mask & (1 << x)) != 0 => e }
          if (es.length == mj.numEdges) {
            val sub = Patterns.fromEdges(k, es)
            // spanning: no isolated vertex (all motifs are connected)
            if ((0 until k).forall(v => sub.degree(v) > 0) && sub.isomorphicTo(mj)) cnt += 1
          }
        }
        cnt
      }
    }
  }

  /** Solve I from N given the (sorted-by-edge-count) conversion matrix:
    * N_j = Σ_i M(i)(j) · I_i, M unit-triangular ⇒ back-substitution from
    * the densest motif down.
    */
  def nonInducedToInduced(motifs: Vector[Pattern], nonInduced: Vector[Long]): Vector[Long] = {
    val m = conversionMatrix(motifs)
    val n = motifs.length
    val induced = new Array[Long](n)
    for (j <- (n - 1) to 0 by -1) {
      var v = nonInduced(j)
      for (i <- j + 1 until n) v -= m(i)(j) * induced(i)
      require(m(j)(j) == 1, s"conversion matrix not unit-triangular at $j")
      induced(j) = v
    }
    induced.toVector
  }

  final case class FormulaResult(induced: Vector[(Pattern, Long)], work: Long)

  /** Per-edge triangle counts and the primitives derived from them. */
  private final case class EdgePrimitives(
      triangles: Long,            // T
      tailedNonInduced: Long,     // Σ_e t_e (d_u + d_v − 4) / 2
      diamondsNonInduced: Long,   // Σ_e C(t_e, 2)
      pathsPart: Long,            // Σ_e (d_u − 1)(d_v − 1)
  )

  /** One pass over the edges u < v. N(u) stays fixed across u's arcs, so
    * each t_e = |N(u) ∩ N(v)| is counted, not built, by probing one n-bit
    * bitmap of N(u) held for the whole call; the work is still the linear
    * merge's step count.
    */
  private def edgePrimitives(g: CSRGraph, wc: WorkCounter): EdgePrimitives = {
    val nu = new ListBitmap(g.n) // N(u), fixed across u's arcs
    var t3 = 0L; var tailed2x = 0L; var dia = 0L; var paths = 0L
    var u = 0
    while (u < g.n) {
      var i = g.nbrStart(u)
      while (i < g.nbrEnd(u)) {
        val v = g.nbrs(i)
        if (u < v) {
          nu.mark(g.nbrs, g.nbrStart(u), g.deg(u))
          val te = SetOps.intersectProbedCount(
            g.nbrs, g.nbrStart(u), g.deg(u), g.nbrs, g.nbrStart(v), g.deg(v), nu, wc).toLong
          t3 += te
          tailed2x += te * (g.deg(u) + g.deg(v) - 4)
          dia += te * (te - 1) / 2
          paths += (g.deg(u) - 1).toLong * (g.deg(v) - 1)
        }
        i += 1
      }
      u += 1
    }
    EdgePrimitives(t3 / 3, tailed2x / 2, dia, paths)
  }

  /** W = Σ_v C(d_v, 2): wedges (non-induced 2-paths) centred anywhere. */
  private def wedges(g: CSRGraph): Long = (0 until g.n).map(v => g.deg(v).toLong * (g.deg(v) - 1) / 2).sum

  /** Non-induced 4-cycle count: every 4-cycle has two "diagonal" vertex
    * pairs; a pair (u, w) with c common neighbors closes C(c, 2) cycles
    * (ESCAPE, Pinar et al., WWW 2017). One Spark job with no shuffle over
    * the broadcast CSR: vertices u are placed round-robin, as the cost of u
    * falls with its id. For each u a partition counts the wedges u–v–w with
    * w > u per end w and adds C(count, 2), so every diagonal pair is seen
    * once, at its lower end. A partition holds two `Int` arrays of n
    * entries. Returns (4-cycles, total wedges).
    */
  def fourCyclesNonInduced(spark: SparkSession, g: CSRGraph): (Long, Long) = {
    val diagonals = Scheduler.roundRobinStripes(spark.sparkContext, g, g.n) { (gg, us) =>
      val cnt = new Array[Int](gg.n)
      val touched = new Array[Int](gg.n)
      var sum = 0L
      us.foreach { u =>
        var nt = 0
        var i = gg.nbrStart(u)
        while (i < gg.nbrEnd(u)) {
          val v = gg.nbrs(i)
          // neighbor lists are sorted: walk N(v) down while w > u
          var j = gg.nbrEnd(v) - 1
          while (j >= gg.nbrStart(v) && gg.nbrs(j) > u) {
            val w = gg.nbrs(j)
            if (cnt(w) == 0) { touched(nt) = w; nt += 1 }
            cnt(w) += 1
            j -= 1
          }
          i += 1
        }
        while (nt > 0) {
          nt -= 1
          val w = touched(nt)
          sum += cnt(w).toLong * (cnt(w) - 1) / 2
          cnt(w) = 0
        }
      }
      sum
    }(_ + _)
    (diagonals / 2, wedges(g))
  }

  /** Induced 3-motif counts from closed forms: wedge = W − 3T, triangle = T. */
  def threeMotifs(g: CSRGraph): FormulaResult = {
    val wc = new WorkCounter
    val prim = edgePrimitives(g, wc)
    val motifs = Patterns.motifs(3)
    val non = motifs.map { p =>
      if (p.isomorphicTo(Patterns.wedge)) wedges(g) else prim.triangles
    }
    val ind = nonInducedToInduced(motifs, non)
    FormulaResult(motifs.zip(ind), wc.ops + g.n)
  }

  /** Induced 4-motif counts: non-induced primitives + exact inversion.
    * 4-cliques are the only piece that needs enumeration (oriented DFS on
    * Spark).
    */
  def fourMotifs(spark: SparkSession, g: CSRGraph): FormulaResult = {
    val wc = new WorkCounter
    val prim = edgePrimitives(g, wc)
    val (c4, allWedges) = fourCyclesNonInduced(spark, g)
    val claws = (0 until g.n).map(v => comb3(g.deg(v))).sum
    val paths = prim.pathsPart - 3 * prim.triangles
    val k4plan = repro.plan.Planner.plan(Patterns.clique(4), induced = false)
    val k4m = repro.engine.DfsEngine.run(spark, g, k4plan, repro.engine.DfsConfig())
    val motifs = Patterns.motifs(4)
    val non = motifs.map { p =>
      if (p.isomorphicTo(Patterns.path(4))) paths
      else if (p.isomorphicTo(Patterns.star(4))) claws
      else if (p.isomorphicTo(Patterns.cycle4)) c4
      else if (p.isomorphicTo(Patterns.tailedTriangle)) prim.tailedNonInduced
      else if (p.isomorphicTo(Patterns.diamond)) prim.diamondsNonInduced
      else if (p.isomorphicTo(Patterns.clique(4))) k4m.count
      else sys.error(s"unexpected 4-motif $p")
    }
    val ind = nonInducedToInduced(motifs, non)
    FormulaResult(motifs.zip(ind), wc.ops + allWedges + k4m.setOpWork)
  }

  private def comb3(d: Int): Long = d.toLong * (d - 1) * (d - 2) / 6
}
