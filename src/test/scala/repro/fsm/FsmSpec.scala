package repro.fsm

import repro.{SparkSpec, TestGraphs}
import repro.graph.{CSRGraph, DataGraphs}
import repro.pattern.{Pattern, Patterns}

/** Brute-force FSM reference: enumerate every connected edge subset up to
  * `maxEdges`, group by canonical labeled code, compute MNI over all
  * isomorphisms. Only viable on tiny graphs — which is the point.
  */
object FsmRef {

  /** @param supports MNI support of every pattern with an embedding
    * @param subsets  number of distinct connected edge subsets of each
    *                 size 1..maxEdges
    */
  final case class Mined(supports: Map[String, Long], subsets: Vector[Long])

  def run(g: CSRGraph, maxEdges: Int, sigma: Long): Map[String, Long] =
    mine(g, maxEdges).supports.filter(_._2 >= sigma)

  def mine(g: CSRGraph, maxEdges: Int): Mined = {
    val edges = g.canonicalEdges.map(e => ((e >>> 32).toInt, (e & 0xffffffffL).toInt))
    val domains = scala.collection.mutable.HashMap.empty[String, Array[scala.collection.mutable.Set[Int]]]
    val subsets = Array.fill(maxEdges)(0L)

    for (k <- 1 to maxEdges; es <- edges.toSeq.combinations(k)) {
      val verts = es.flatMap(e => Seq(e._1, e._2)).distinct.sorted
      if (verts.length <= 4 && connected(es, verts)) {
        subsets(k - 1) += 1
        val vIdx = verts.zipWithIndex.toMap
        val local = Patterns.fromEdges(verts.length, es.map(e => (vIdx(e._1), vIdx(e._2))),
          Some(verts.map(g.label).toVector))
        val code = local.canonicalCode
        val canon = Fsm.decodePattern(code)
        val dom = domains.getOrElseUpdate(code,
          Array.fill(canon.n)(scala.collection.mutable.Set.empty[Int]))
        // all isomorphisms canon -> local subgraph
        for (perm <- verts.indices.toVector.permutations) {
          val ok = (0 until canon.n).forall { i =>
            canon.labels.get(i) == g.label(verts(perm(i))) &&
              (0 until canon.n).forall(j => canon.isEdge(i, j) == local.isEdge(perm(i), perm(j)))
          }
          if (ok) for (i <- 0 until canon.n) dom(i) += verts(perm(i))
        }
      }
    }
    Mined(domains.map { case (code, dom) => code -> dom.map(_.size.toLong).min }.toMap, subsets.toVector)
  }

  private def connected(es: Seq[(Int, Int)], verts: Seq[Int]): Boolean = {
    if (verts.isEmpty) return false
    var seen = Set(verts.head)
    var changed = true
    while (changed) {
      changed = false
      for ((u, v) <- es) {
        if (seen(u) && !seen(v)) { seen += v; changed = true }
        if (seen(v) && !seen(u)) { seen += u; changed = true }
      }
    }
    seen.size == verts.size
  }
}

class FsmSpec extends SparkSpec {

  private def labeledEdge(la: Int, lb: Int) = Patterns.fromEdges(2, Seq((0, 1)), Some(Vector(la, lb)))

  test("decodePattern round-trips canonical codes") {
    val ps = Seq(
      labeledEdge(2, 5),
      Patterns.fromEdges(3, Seq((0, 1), (1, 2)), Some(Vector(1, 0, 1))),
      Patterns.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)), Some(Vector(0, 1, 1, 2))),
      Patterns.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)), Some(Vector(3, 3, 3))),
    )
    for (p <- ps) {
      val code = p.canonicalCode
      val back = Fsm.decodePattern(code)
      assert(back.canonicalCode == code)
      assert(back.isomorphicTo(p))
    }
  }

  for (sigma <- Seq(1L, 2L, 3L, 5L))
    test(s"FSM == brute force on labeledTiny (sigma=$sigma, maxEdges=2)") {
      val g = TestGraphs.labeledTiny
      val got = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = sigma, maxEdges = 2))
      val want = FsmRef.run(g, maxEdges = 2, sigma)
      assert(got.frequent == want)
    }

  for (sigma <- Seq(2L, 4L))
    test(s"FSM == brute force on labeledTiny (sigma=$sigma, maxEdges=3)") {
      val g = TestGraphs.labeledTiny
      val got = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = sigma, maxEdges = 3))
      val want = FsmRef.run(g, maxEdges = 3, sigma)
      assert(got.frequent == want)
    }

  test("label pruning does not change results (opt N is exact)") {
    val g = TestGraphs.labeledTiny
    val a = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 3, maxEdges = 3, labelPruning = true))
    val b = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 3, maxEdges = 3, labelPruning = false))
    assert(a.frequent == b.frequent)
  }

  test("support is monotone: higher sigma yields a subset") {
    val g = TestGraphs.labeled
    val lo = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 3, maxEdges = 2))
    val hi = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 10, maxEdges = 2))
    assert(hi.frequent.keySet.subsetOf(lo.frequent.keySet))
    for ((c, s) <- hi.frequent) assert(lo.frequent(c) == s)
  }

  test("frequent single-edge supports match hand computation") {
    // path 0-1-2 labeled A-B-A: pattern (A,B) has MNI = min(|{0,2}|, |{1}|) = 1
    val g = CSRGraph.fromEdges(3, Seq((0, 1), (1, 2)), Array(0, 1, 0))
    val res = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 1, maxEdges = 1))
    val code = labeledEdge(0, 1).canonicalCode
    assert(res.frequent(code) == 1)
  }

  test("MNI counts distinct vertices across automorphic embeddings") {
    // triangle with equal labels: single-edge pattern (A,A) domain = all 3
    val g = CSRGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)), Array(7, 7, 7))
    val res = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 1, maxEdges = 1))
    val code = labeledEdge(7, 7).canonicalCode
    assert(res.frequent(code) == 3)
  }

  test("metrics: level embeddings monotone bookkeeping and label counts") {
    val g = TestGraphs.labeledTiny
    val res = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 2, maxEdges = 3))
    val m = res.metrics
    assert(m.levelEmbeddings.length == 3)
    assert(m.levelEmbeddings.head == g.numEdges || m.levelEmbeddings.head <= g.numEdges)
    assert(m.numFrequentLabels <= m.numLabels)
    assert(m.extensionWork > 0)
  }

  // blockRows = 64 spreads each level of Mi's tiny analog over many
  // partitions (up to 256), so copies of one embedding found on different
  // partitions must meet in the dedupe shuffle.
  private lazy val miTiny = TestGraphs.tiny(DataGraphs.mi)
  private lazy val miTinyRef = FsmRef.mine(miTiny, maxEdges = 3)

  for (sigma <- Seq(1L, 3L); blockRows <- Seq(64L, 1L << 16))
    test(s"FSM == brute force across partitions on Mi's tiny analog (sigma=$sigma, blockRows=$blockRows)") {
      val got = Fsm.run(spark, miTiny, Fsm.FsmConfig(minSupport = sigma, blockRows = blockRows))
      assert(got.frequent == miTinyRef.supports.filter(_._2 >= sigma))
      for ((c, s) <- got.allSupports) assert(miTinyRef.supports(c) == s, c)
      if (sigma == 1) {
        assert(got.allSupports == miTinyRef.supports)
        // every connected edge subset is one canonical embedding
        assert(got.metrics.levelEmbeddings == miTinyRef.subsets)
      }
      val other = if (blockRows == 64L) 1L << 16 else 64L
      assert(got.metrics == Fsm.run(spark, miTiny, Fsm.FsmConfig(minSupport = sigma, blockRows = other)).metrics)
    }

  for ((field, cfg) <- Seq[(String, () => Fsm.FsmConfig)](
         "minSupport" -> (() => Fsm.FsmConfig(minSupport = 0)),
         "maxEdges" -> (() => Fsm.FsmConfig(minSupport = 1, maxEdges = 0)),
         "blockRows" -> (() => Fsm.FsmConfig(minSupport = 1, blockRows = 0))))
    test(s"FsmConfig rejects $field below 1") {
      val e = intercept[IllegalArgumentException](cfg())
      assert(e.getMessage.contains(field))
    }

  test("FSM on a labeled DataGraphs tiny analog completes") {
    val g = TestGraphs.tiny(repro.graph.DataGraphs.mi)
    val res = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 2, maxEdges = 3))
    assert(res.frequent.nonEmpty)
  }
}
