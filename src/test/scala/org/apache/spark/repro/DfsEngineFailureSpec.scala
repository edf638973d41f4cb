package org.apache.spark.repro

import org.apache.spark.SparkException
import repro.TestGraphs
import repro.engine.{DfsConfig, DfsEngine}
import repro.graph.CSRGraph
import repro.pattern.Patterns
import repro.plan.Planner

class DfsEngineFailureSpec extends FaultInjection {

  test("DfsEngine.run releases the graph broadcast when an executor task throws") {
    val g = TestGraphs.k7
    // Vertex 0's largest neighbour becomes an id past the end of the graph:
    // the arrays keep their structure, so the constructor accepts the
    // graph, lists stay sorted, and the first set op that reads the bad
    // vertex's list throws on the executor that runs that arc's slot.
    val nbrs = g.nbrs.clone()
    nbrs(g.offsets(1) - 1) = g.n + 5
    val bad = new CSRGraph(g.n, g.offsets, nbrs, g.labels)
    assertReleasesOnFailure[SparkException] {
      DfsEngine.run(spark, bad, Planner.plan(Patterns.diamond, induced = false), DfsConfig(orientation = false))
    }
  }
}
