package repro.mc

import repro.{SparkSpec, TestGraphs}
import repro.engine.{DfsConfig, DfsEngine, NaiveMatcher}
import repro.pattern.{PatternNames, Patterns}
import repro.plan.Planner

class MotifFormulasSpec extends SparkSpec {

  test("3-motif conversion matrix is the classic [[1,0],[3,1]]") {
    val ms = Patterns.motifs(3)
    val m = MotifFormulas.conversionMatrix(ms)
    // ms(0) = wedge, ms(1) = triangle (sorted by edge count)
    assert(m(0) == Vector(1L, 0L))
    assert(m(1) == Vector(3L, 1L)) // a triangle spans 3 wedges and itself
  }

  test("4-motif conversion matrix is unit-triangular with known diamond row") {
    val ms = Patterns.motifs(4)
    val m = MotifFormulas.conversionMatrix(ms)
    for (i <- ms.indices) {
      assert(m(i)(i) == 1)
      for (j <- i + 1 until ms.length) assert(m(i)(j) == 0)
    }
    // the 4-clique spans: 6 diamonds (drop any edge), 3 4-cycles,
    // 12 tailed triangles, 4 claws, 12 4-paths
    val k4 = ms.indexWhere(_.isClique)
    val idx = (p: repro.pattern.Pattern) => ms.indexWhere(_.isomorphicTo(p))
    assert(m(k4)(idx(Patterns.diamond)) == 6)
    assert(m(k4)(idx(Patterns.cycle4)) == 3)
    assert(m(k4)(idx(Patterns.tailedTriangle)) == 12)
    assert(m(k4)(idx(Patterns.star(4))) == 4)
    assert(m(k4)(idx(Patterns.path(4))) == 12)
  }

  test("nonInducedToInduced inverts the forward transform (random vectors)") {
    val ms = Patterns.motifs(4)
    val m = MotifFormulas.conversionMatrix(ms)
    val rnd = new scala.util.Random(7)
    for (_ <- 1 to 20) {
      val induced = Vector.fill(ms.length)(rnd.nextInt(1000).toLong)
      val non = ms.indices.map(j => ms.indices.map(i => m(i)(j) * induced(i)).sum).toVector
      assert(MotifFormulas.nonInducedToInduced(ms, non) == induced)
    }
  }

  for ((name, g) <- TestGraphs.forMatching)
    test(s"formula 3-motif counts == enumeration on $name") {
      val r = MotifFormulas.threeMotifs(g)
      for ((p, c) <- r.induced)
        assert(c == NaiveMatcher.countUnique(g, p, induced = true), PatternNames.nameOf(p))
    }

  for ((name, g) <- Seq("pl-skew" -> TestGraphs.plSkew, "pl-mild" -> TestGraphs.plMild,
    "pl-dense" -> TestGraphs.plDense, "K7" -> TestGraphs.k7, "grid3x4" -> TestGraphs.grid34))
    test(s"formula 4-motif counts == enumeration on $name") {
      val r = MotifFormulas.fourMotifs(spark, g)
      for ((p, c) <- r.induced)
        assert(c == NaiveMatcher.countUnique(g, p, induced = true),
          s"${PatternNames.nameOf(p)}: formula=$c")
    }

  test("formula work is cheaper than full enumeration work (pl-dense)") {
    val g = TestGraphs.plDense
    val formula = MotifFormulas.fourMotifs(spark, g)
    val enumWork = Patterns.motifs(4).map { p =>
      DfsEngine.runLocal(g, Planner.plan(p, induced = true), DfsConfig()).setOpWork
    }.sum
    assert(formula.work < enumWork * 2) // formulas avoid the deep levels
  }

  test("4-cycle primitive agrees with direct counting") {
    for ((name, g) <- TestGraphs.forMatching) {
      val (c4, _) = MotifFormulas.fourCyclesNonInduced(spark, g)
      val direct = NaiveMatcher.countUnique(g, Patterns.cycle4, induced = false)
      assert(c4 == direct, name)
    }
  }

  test("3-motif totals: wedge + triangle counts cover all connected triples") {
    val g = TestGraphs.plMild
    val r = MotifFormulas.threeMotifs(g).induced.map(_._2).sum
    val direct = Patterns.motifs(3).map(NaiveMatcher.countUnique(g, _, induced = true)).sum
    assert(r == direct)
  }
}
