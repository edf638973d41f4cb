package org.apache.spark.repro

import org.apache.spark.SparkException
import repro.TestGraphs
import repro.engine.{DfsConfig, DfsEngine}
import repro.graph.CSRGraph
import repro.pattern.{Pattern, Patterns}
import repro.plan.Planner

class DfsEngineFailureSpec extends FaultInjection {

  // Vertex 0's largest neighbour becomes an id past the end of the graph:
  // the arrays keep their structure, so the constructor accepts the graph,
  // lists stay sorted, and the first set op that reads the bad vertex's
  // list throws in the task that runs that arc's slot.
  private lazy val bad: CSRGraph = {
    val g = TestGraphs.k7
    val nbrs = g.nbrs.clone()
    nbrs(g.offsets(1) - 1) = g.n + 5
    new CSRGraph(g.n, g.offsets, nbrs, g.labels)
  }
  private val diamond = Planner.plan(Patterns.diamond, induced = false)

  test("DfsEngine.run releases the graph broadcast when an executor task throws") {
    assertReleasesOnFailure[SparkException] {
      DfsEngine.run(spark, bad, diamond, DfsConfig(orientation = false))
    }
  }

  test("DfsEngine.perTaskWork throws, returning no partial array, when a stripe throws") {
    intercept[ArrayIndexOutOfBoundsException] {
      DfsEngine.perTaskWork(bad, diamond, DfsConfig(orientation = false))
    }
  }

  test("a 1-vertex pattern is rejected by run, runLocal and perTaskWork, naming its size, before any broadcast") {
    val single = Planner.plan(Pattern(1, Vector(0)), induced = false)
    val g = TestGraphs.plMild
    def rejects(body: => Any): Unit = {
      val e = intercept[IllegalArgumentException](body)
      assert(e.getMessage.contains("pattern size 1"), e.getMessage)
    }
    assertReleasesOnFailure[IllegalArgumentException](DfsEngine.run(spark, g, single))
    rejects(DfsEngine.run(spark, g, single))
    rejects(DfsEngine.runLocal(g, single))
    rejects(DfsEngine.perTaskWork(g, single))
  }

  test("the 2-vertex edge pattern still counts every edge") {
    val edge = Planner.plan(Patterns.fromEdges(2, Seq((0, 1))), induced = false)
    for (g <- Seq(TestGraphs.plMild, TestGraphs.k7)) {
      assert(DfsEngine.runLocal(g, edge).count == g.numEdges)
      assert(DfsEngine.run(spark, g, edge).count == g.numEdges)
      assert(DfsEngine.perTaskWork(g, edge).length == g.numEdges)
    }
  }
}
