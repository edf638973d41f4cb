package repro.pattern

import org.scalatest.funsuite.AnyFunSuite

class PatternSpec extends AnyFunSuite {

  test("triangle basics") {
    val t = Patterns.triangle
    assert(t.n == 3 && t.numEdges == 3)
    assert(t.isClique && t.isConnected)
    assert(t.hubVertices == Vector(0, 1, 2))
  }

  test("diamond structure") {
    val d = Patterns.diamond
    assert(d.numEdges == 5)
    assert(d.degree(0) == 3 && d.degree(1) == 3 && d.degree(2) == 2 && d.degree(3) == 2)
    assert(d.hubVertices == Vector(0, 1))
    assert(!d.isClique)
  }

  test("cycle4 is not a hub pattern") {
    assert(Patterns.cycle4.hubVertices.isEmpty)
    assert(Patterns.cycle4.numEdges == 4)
  }

  test("stars and paths") {
    assert(Patterns.star(4).degree(0) == 3)
    assert(Patterns.star(4).hubVertices == Vector(0))
    assert(Patterns.path(5).numEdges == 4)
    assert(Patterns.path(3).isomorphicTo(Patterns.wedge))
  }

  test("connectivity detection") {
    val disconnected = Patterns.fromEdges(4, Seq((0, 1), (2, 3)))
    assert(!disconnected.isConnected)
    assert(Patterns.path(4).isConnected)
    assert(Pattern(1, Vector(0)).isConnected)
  }

  test("automorphism group sizes of known patterns") {
    assert(Patterns.triangle.automorphisms.size == 6)
    assert(Patterns.clique(4).automorphisms.size == 24)
    assert(Patterns.clique(5).automorphisms.size == 120)
    assert(Patterns.diamond.automorphisms.size == 4)   // swap hubs × swap tips
    assert(Patterns.cycle4.automorphisms.size == 8)    // dihedral D4
    assert(Patterns.wedge.automorphisms.size == 2)
    assert(Patterns.star(4).automorphisms.size == 6)   // 3! leaf perms
    assert(Patterns.path(4).automorphisms.size == 2)
    assert(Patterns.tailedTriangle.automorphisms.size == 2)
  }

  test("labeled automorphisms are restricted by labels") {
    val p = Patterns.fromEdges(3, Seq((0, 1), (0, 2)), Some(Vector(0, 1, 2)))
    assert(p.automorphisms.size == 1)
    val q = Patterns.fromEdges(3, Seq((0, 1), (0, 2)), Some(Vector(0, 1, 1)))
    assert(q.automorphisms.size == 2)
  }

  test("isomorphismsTo: |Aut| edge-preserving maps onto a permuted copy, none across classes or labels") {
    val perm = Vector(2, 0, 3, 1)
    val inverse = perm.indices.map(perm.indexOf(_)).toVector
    for (p <- Patterns.motifs(4)) {
      val q = p.permuted(perm)
      val isos = p.isomorphismsTo(q)
      assert(isos.size == p.automorphisms.size && isos.distinct == isos, s"$p")
      assert(isos.contains(inverse), s"$p")
      for (phi <- isos; u <- 0 until 4; v <- 0 until 4)
        assert(p.isEdge(u, v) == q.isEdge(phi(u), phi(v)), s"$p under $phi")
    }
    assert(Patterns.path(4).isomorphismsTo(Patterns.star(4)).isEmpty)
    assert(Patterns.triangle.isomorphismsTo(Patterns.clique(4)).isEmpty)
    // labels restrict the maps: the label-0 centre must land on a label-0 centre
    val a = Patterns.fromEdges(3, Seq((0, 1), (0, 2)), Some(Vector(0, 1, 1)))
    val b = Patterns.fromEdges(3, Seq((1, 0), (1, 2)), Some(Vector(1, 0, 1)))
    val c = Patterns.fromEdges(3, Seq((0, 1), (0, 2)), Some(Vector(1, 0, 1)))
    assert(a.isomorphismsTo(b).toSet == Set(Vector(1, 0, 2), Vector(1, 2, 0)))
    assert(a.isomorphismsTo(c).isEmpty)
    assert(a.isomorphismsTo(Patterns.wedge).isEmpty)
  }

  test("canonical codes: isomorphic patterns match, others differ") {
    val d1 = Patterns.diamond
    val d2 = Patterns.fromEdges(4, Seq((2, 3), (2, 0), (2, 1), (3, 0), (3, 1)))
    assert(d1.isomorphicTo(d2))
    assert(!d1.isomorphicTo(Patterns.cycle4))
    assert(!Patterns.path(4).isomorphicTo(Patterns.star(4)))
  }

  test("canonical code is invariant under permutation") {
    val p = Patterns.tailedTriangle
    for (perm <- (0 until 4).toVector.permutations)
      assert(p.permuted(perm).canonicalCode == p.canonicalCode)
  }

  test("permuted preserves adjacency relationally") {
    val p = Patterns.diamond
    val perm = Vector(2, 0, 3, 1)
    val q = p.permuted(perm)
    for (i <- 0 until 4; j <- 0 until 4)
      assert(q.isEdge(i, j) == p.isEdge(perm(i), perm(j)))
  }

  test("withEdge grows patterns") {
    val e = Patterns.clique(2)
    val w = e.withEdge(0, 2)
    assert(w.n == 3 && w.numEdges == 2)
    assert(w.isomorphicTo(Patterns.wedge))
    val t = w.withEdge(1, 2)
    assert(t.isomorphicTo(Patterns.triangle))
  }

  test("motifs(3) are wedge and triangle") {
    val ms = Patterns.motifs(3)
    assert(ms.size == 2)
    assert(ms.exists(_.isomorphicTo(Patterns.wedge)))
    assert(ms.exists(_.isomorphicTo(Patterns.triangle)))
  }

  test("motifs(4) are the 6 connected 4-vertex graphs") {
    val ms = Patterns.motifs(4)
    assert(ms.size == 6)
    val expected = Seq(Patterns.path(4), Patterns.star(4), Patterns.cycle4,
      Patterns.tailedTriangle, Patterns.diamond, Patterns.clique(4))
    for (e <- expected) assert(ms.exists(_.isomorphicTo(e)), s"missing ${PatternNames.nameOf(e)}")
  }

  test("motifs(5) has 21 members") {
    assert(Patterns.motifs(5).size == 21)
  }

  test("motifs are sorted by edge count") {
    val ms = Patterns.motifs(4)
    assert(ms.map(_.numEdges) == ms.map(_.numEdges).sorted)
  }

  test("pattern validation rejects self loops and out-of-range edges") {
    intercept[IllegalArgumentException](Patterns.fromEdges(3, Seq((0, 0))))
    intercept[IllegalArgumentException](Patterns.fromEdges(2, Seq((0, 2))))
  }

  test("nameOf covers the catalog") {
    assert(PatternNames.nameOf(Patterns.diamond) == "diamond")
    assert(PatternNames.nameOf(Patterns.clique(5)) == "5-clique")
    assert(PatternNames.nameOf(Patterns.cycle4) == "4-cycle")
  }

  test("edges listing is canonical (u < v)") {
    for (p <- Patterns.motifs(4); (u, v) <- p.edges) assert(u < v)
  }

  test("hub detection across all 4-motifs") {
    val hubs = Patterns.motifs(4).filter(_.hubVertices.nonEmpty).map(PatternNames.nameOf).toSet
    assert(hubs == Set("3-star", "tailed-tri", "diamond", "4-clique"))
  }
}
