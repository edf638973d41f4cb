package org.apache.spark.repro

import org.apache.spark.SparkException
import repro.TestGraphs
import repro.graph.CSRGraph
import repro.mc.MotifFormulas

class MotifFormulasFailureSpec extends FaultInjection {

  test("fourCyclesNonInduced releases the graph broadcast when an executor task throws") {
    val g = TestGraphs.plSkew
    // The last arc's neighbour id becomes n + 5: the arrays keep their
    // structure, so the constructor accepts the graph, and the list stays
    // sorted. The wedge scan of any neighbour u of that arc's source then
    // indexes cnt(n + 5) on an executor.
    val nbrs = g.nbrs.clone()
    nbrs(nbrs.length - 1) = g.n + 5
    val bad = new CSRGraph(g.n, g.offsets, nbrs, g.labels)
    assertReleasesOnFailure[SparkException] {
      MotifFormulas.fourCyclesNonInduced(spark, bad)
    }
  }
}
