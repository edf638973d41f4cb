package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.engine.NaiveMatcher.hasEdge
import repro.setops.{ListBitmap, WorkCounter}

class GraphSpec extends AnyFunSuite {

  test("CSR build dedups, drops loops, symmetrizes, sorts") {
    val g = CSRGraph.fromEdges(4, Seq((0, 1), (1, 0), (1, 1), (2, 3), (3, 2), (0, 1)))
    assert(g.numEdges == 2)
    for (v <- 0 until g.n) {
      val l = g.nbrs.slice(g.nbrStart(v), g.nbrEnd(v))
      assert(l.toSeq == l.sorted.toSeq)
      assert(!l.contains(v))
    }
    assert(hasEdge(g, 0, 1) && hasEdge(g, 1, 0) && hasEdge(g, 2, 3))
    assert(!hasEdge(g, 0, 2))
  }

  test("malformed CSR arrays are rejected by the constructor or validate()") {
    val cases = Seq[(String, () => Unit)](
      "offsets length" -> (() => new CSRGraph(3, Array(0, 1, 2), Array(1, 0), Array.empty)),
      "offsets(0) != 0" -> (() => new CSRGraph(2, Array(1, 1, 2), Array(1, 0), Array.empty)),
      "offsets decrease" -> (() => new CSRGraph(3, Array(0, 2, 1, 2), Array(1, 0), Array.empty)),
      "offsets(n) != nbrs.length" -> (() => new CSRGraph(2, Array(0, 1, 2), Array(1), Array.empty)),
      "labels of the wrong length" -> (() => new CSRGraph(2, Array(0, 1, 2), Array(1, 0), Array(0))),
      "id below range" -> (() => new CSRGraph(2, Array(0, 1, 2), Array(-1, 0), Array.empty).validate()),
      "id past range" -> (() => new CSRGraph(2, Array(0, 1, 2), Array(2, 0), Array.empty).validate()),
      "list not ascending" -> (() => new CSRGraph(3, Array(0, 2, 3, 4), Array(2, 1, 0, 0), Array.empty).validate()),
      "duplicate neighbor" -> (() => new CSRGraph(2, Array(0, 2, 2), Array(1, 1), Array.empty).validate()),
    )
    for ((name, build) <- cases)
      withClue(name)(intercept[IllegalArgumentException](build()))
    new CSRGraph(2, Array(0, 1, 2), Array(1, 0), Array(0, 1)).validate()
    new CSRGraph(0, Array(0), Array.empty, Array.empty).validate()
  }

  test("degrees and max degree") {
    val s = TestGraphs.star8
    assert(s.deg(0) == 8 && s.maxDegree == 8)
    assert((1 to 8).forall(s.deg(_) == 1))
  }

  test("canonicalEdges emits each edge once, u < v") {
    val g = TestGraphs.plSkew
    val es = g.canonicalEdges
    assert(es.length == g.numEdges)
    assert(es.forall(e => (e >>> 32) < (e & 0xffffffffL)))
    assert(es.distinct.length == es.length)
  }

  test("orientation halves arcs and produces a DAG") {
    val g = TestGraphs.plMild
    val d = g.oriented
    assert(d.numArcs.toLong == g.numEdges)
    // acyclic by rank construction: every arc increases (deg, id) rank
    def rank(gr: CSRGraph, v: Int): Long = (g.deg(v).toLong << 32) | v.toLong
    for (u <- 0 until d.n; i <- d.nbrStart(u) until d.nbrEnd(u))
      assert(rank(d, u) < rank(d, d.nbrs(i)))
  }

  test("orientation reduces max degree on skewed graphs") {
    val g = TestGraphs.plSkew
    assert(g.oriented.maxDegree <= g.maxDegree)
  }

  test("oriented lists remain sorted") {
    val d = TestGraphs.plSkew.oriented
    for (v <- 0 until d.n) {
      val l = d.nbrs.slice(d.nbrStart(v), d.nbrEnd(v))
      assert(l.toSeq == l.sorted.toSeq)
    }
  }

  test("localGraph is the induced neighborhood with order-preserving rename") {
    val g = TestGraphs.plDense
    val wc = new WorkCounter
    val root = (0 until g.n).maxBy(g.deg)
    val (lg, verts) = g.localGraph(root, wc)
    assert(lg.n == g.deg(root))
    assert(verts.toSeq == verts.sorted.toSeq)
    for (i <- 0 until lg.n; j <- 0 until lg.n if i != j)
      assert(hasEdge(lg, i, j) == hasEdge(g, verts(i), verts(j)))
    assert(wc.ops > 0)
  }

  /** The work of building every root's local graph, recorded at commit
    * 5a4f501, where each neighbour's list was merged with N(root).
    */
  for ((gName, g, work) <- Seq(("pl-dense", TestGraphs.plDense, 11760L), ("pl-skew", TestGraphs.plSkew, 5506L)))
    test(s"localGraph probing N(root) builds every root's induced neighborhood with the merged work on $gName") {
      val wc = new WorkCounter; val rootBits = new ListBitmap(g.n)
      for (root <- 0 until g.n) {
        val (lg, verts) = g.localGraph(root, wc, rootBits)
        assert(verts.toSeq == g.nbrs.slice(g.nbrStart(root), g.nbrEnd(root)).toSeq)
        for (i <- 0 until lg.n; j <- 0 until lg.n if i != j)
          assert(hasEdge(lg, i, j) == hasEdge(g, verts(i), verts(j)), s"root $root")
      }
      assert(wc.ops == work)
    }

  test("powerLaw generator is deterministic in its seed") {
    val a = SynthGraphs.powerLaw(100, 250, 0.7, seed = 9)
    val b = SynthGraphs.powerLaw(100, 250, 0.7, seed = 9)
    assert(a.canonicalEdges.toSeq == b.canonicalEdges.toSeq)
    val c = SynthGraphs.powerLaw(100, 250, 0.7, seed = 10)
    assert(a.canonicalEdges.toSeq != c.canonicalEdges.toSeq)
  }

  test("powerLaw hits the requested edge count") {
    val g = SynthGraphs.powerLaw(500, 2000, 0.6, seed = 7)
    assert(g.numEdges == 2000)
  }

  test("higher alpha yields higher max degree") {
    val lo = SynthGraphs.powerLaw(2000, 8000, 0.3, seed = 11)
    val hi = SynthGraphs.powerLaw(2000, 8000, 0.9, seed = 11)
    assert(hi.maxDegree > lo.maxDegree)
  }

  test("labels generated when requested, zipf-skewed") {
    val g = SynthGraphs.powerLaw(400, 1200, 0.6, seed = 12, numLabels = 5)
    assert(g.labeled)
    val freq = (0 until g.n).groupBy(g.label).view.mapValues(_.size).toMap
    assert(freq.keySet.subsetOf((0 until 5).toSet))
    assert(freq(0) > freq.getOrElse(4, 0)) // label 0 is the most common rank
  }

  test("fixtures: complete graph and cycle shapes") {
    assert(TestGraphs.k7.numEdges == 21)
    assert(TestGraphs.cyc9.numEdges == 9)
    assert((0 until 9).forall(TestGraphs.cyc9.deg(_) == 2))
    assert(TestGraphs.grid34.numEdges == (2 * 4 + 3 * 3))
  }

  test("triadic closure raises the triangle count at equal size") {
    val flat = SynthGraphs.powerLaw(1000, 6000, 0.5, seed = 21)
    val clustered = SynthGraphs.powerLaw(1000, 6000, 0.5, seed = 21, closure = 0.4)
    def tri(g: CSRGraph): Long =
      repro.engine.DfsEngine.runLocal(g,
        repro.plan.Planner.plan(repro.pattern.Patterns.triangle, induced = false),
        repro.engine.DfsConfig()).count
    assert(clustered.numEdges == flat.numEdges)
    assert(tri(clustered) > 2 * tri(flat))
  }

  test("planted cliques contribute their clique counts") {
    val g = SynthGraphs.powerLaw(2000, 9000, 0.4, seed = 22, plantCliques = Seq(20))
    val k4 = repro.engine.DfsEngine.runLocal(g,
      repro.plan.Planner.plan(repro.pattern.Patterns.clique(4), induced = false),
      repro.engine.DfsConfig()).count
    // a 20-clique alone holds C(20,4) = 4845 4-cliques (collisions may
    // shrink the planted set slightly)
    assert(k4 >= 3000)
  }

  test("DataGraphs tiny variants build and stay small") {
    import DataGraphs._
    for (s <- Seq(lj, or, tw2, tw4, fr, uk, mi, pa, yo)) {
      val g = TestGraphs.tiny(s)
      g.validate()
      assert(g.n <= s.n && g.numEdges > 0)
      if (s.labels > 0) assert(g.labeled)
    }
  }
}
