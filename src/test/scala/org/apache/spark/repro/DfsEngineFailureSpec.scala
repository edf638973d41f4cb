package org.apache.spark.repro

import org.apache.spark.SparkException
import repro.TestGraphs
import repro.engine.{DfsConfig, DfsEngine}
import repro.graph.CSRGraph
import repro.pattern.Patterns
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
}
