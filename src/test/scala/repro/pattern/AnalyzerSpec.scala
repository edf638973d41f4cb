package repro.pattern

import org.scalatest.funsuite.AnyFunSuite

class AnalyzerSpec extends AnyFunSuite {

  test("connected orders of a path never start in the middle gapped") {
    val orders = Analyzer.connectedOrders(Patterns.path(4)).toVector
    assert(orders.nonEmpty)
    for (o <- orders; i <- 1 until 4)
      assert((0 until i).exists(j => Patterns.path(4).isEdge(o(i), o(j))))
  }

  test("clique orders short-circuit to identity") {
    assert(Analyzer.chooseOrder(Patterns.clique(5), induced = false) == Vector(0, 1, 2, 3, 4))
  }

  test("diamond order starts from a hub (triangle-first)") {
    val so = Analyzer.analyze(Patterns.diamond, induced = false)
    // position 0 must be one of the two hub vertices
    assert(Patterns.diamond.degree(so.order(0)) == 3)
    assert(so.posPattern.degree(0) == 3)
  }

  test("symmetry conditions verified for every 3- and 4-motif, both modes") {
    for (k <- Seq(3, 4); p <- Patterns.motifs(k); induced <- Seq(true, false)) {
      val so = Analyzer.analyze(p, induced)
      assert(Analyzer.condsValid(so.posPattern, so.conds),
        s"invalid conds for ${PatternNames.nameOf(p)} induced=$induced: ${so.conds}")
    }
  }

  test("symmetry conditions verified for every 5-motif") {
    for (p <- Patterns.motifs(5)) {
      val so = Analyzer.analyze(p, induced = true)
      assert(Analyzer.condsValid(so.posPattern, so.conds), s"invalid conds for $p")
    }
  }

  test("clique chains verified up to 7-clique") {
    for (k <- 3 to 7) {
      val so = Analyzer.analyze(Patterns.clique(k), induced = false)
      assert(so.conds == (1 until k).map(i => (i, i - 1)).toVector)
      assert(Analyzer.condsValid(so.posPattern, so.conds))
    }
  }

  test("diamond gets exactly two conditions (paper Fig. 5)") {
    val so = Analyzer.analyze(Patterns.diamond, induced = false)
    assert(so.conds.size == 2) // |Aut| = 4 = 2 × 2
  }

  test("number of conditions bounds: triangle needs a total order") {
    val so = Analyzer.analyze(Patterns.triangle, induced = false)
    assert(Analyzer.condsValid(so.posPattern, so.conds))
    assert(so.conds.size == 2)
  }

  test("asymmetric pattern needs no conditions") {
    // path with a pendant making it asymmetric: 0-1-2-3 plus (1,4): |Aut|=1
    val p = Patterns.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (1, 4), (3, 4)))
    if (p.automorphisms.size == 1) {
      val so = Analyzer.analyze(p, induced = false)
      assert(so.conds.isEmpty)
    }
  }

  test("condsValid rejects over- and under-constrained sets") {
    val tri = Patterns.triangle
    assert(!Analyzer.condsValid(tri, Vector.empty))             // all 6 survive
    assert(!Analyzer.condsValid(tri, Vector((0, 1))))           // still 3 or 2 per orbit
    assert(Analyzer.condsValid(tri, Vector((0, 1), (1, 2))))    // total order
    assert(!Analyzer.condsValid(tri, Vector((0, 1), (1, 2), (2, 0)))) // contradiction kills orbits
  }

  test("4-cycle order is star-first in both modes: position 2 is adjacent to position 0") {
    for (induced <- Seq(false, true)) {
      val so = Analyzer.analyze(Patterns.cycle4, induced)
      assert(so.order == Vector(0, 1, 3, 2), s"induced=$induced")
      assert(so.posPattern.isEdge(2, 0), s"induced=$induced")
      assert(Analyzer.chooseOrder(Patterns.cycle4, induced) == so.order)
    }
  }

  test("induced 4-path order carries the root condition (0,1)") {
    val so = Analyzer.analyze(Patterns.path(4), induced = true)
    assert(so.conds.contains((0, 1)), s"order=${so.order} conds=${so.conds}")
  }

  test("the symmetry-aware cost keeps the orders of stars, diamond, tailed triangle, cliques, wedge and triangle") {
    val expected = Seq(Patterns.star(4) -> "0123", Patterns.diamond -> "0123", Patterns.tailedTriangle -> "0123",
      Patterns.clique(4) -> "0123", Patterns.clique(5) -> "01234", Patterns.wedge -> "012",
      Patterns.triangle -> "012")
    for ((p, ord) <- expected; induced <- Seq(false, true))
      assert(Analyzer.chooseOrder(p, induced).mkString == ord, s"${PatternNames.nameOf(p)} induced=$induced")
  }

  test("analyze keeps the conditions of the order it chose") {
    for (k <- Seq(3, 4); p <- Patterns.motifs(k); induced <- Seq(true, false)) {
      val so = Analyzer.analyze(p, induced)
      assert(so.posPattern == p.permuted(so.order))
      assert(so.conds == Analyzer.symmetryConds(so.posPattern))
    }
  }

  test("order cost sees the symmetry order: a root condition makes the 4-path cheaper") {
    // Both orders extend one neighbour at a time; only 1203 gets (0,1),
    // which halves the frontier from level 1 on.
    val path = Patterns.path(4)
    assert(Analyzer.orderCost(path, Vector(1, 2, 0, 3), induced = true) <
      Analyzer.orderCost(path, Vector(0, 1, 2, 3), induced = true))
  }

  test("order cost prefers constrained extensions early") {
    val d = Patterns.diamond
    // an order matching tips before both hubs is costlier than triangle-first
    val bad = Vector(2, 3, 0, 1) // tip, tip (disconnected!) — not a connected order
    assert(!Analyzer.connectedOrders(d).contains(bad))
    val good = Analyzer.chooseOrder(d, induced = false)
    val worse = Analyzer.connectedOrders(d).maxBy(o => Analyzer.orderCost(d, o, induced = false))
    assert(Analyzer.orderCost(d, good, induced = false) <=
      Analyzer.orderCost(d, worse, induced = false))
  }
}
