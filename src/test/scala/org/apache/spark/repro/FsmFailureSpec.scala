package org.apache.spark.repro

import org.apache.spark.SparkException
import repro.TestGraphs
import repro.fsm.Fsm
import repro.graph.CSRGraph

class FsmFailureSpec extends FaultInjection {

  test("Fsm.run releases the broadcast and its persisted levels when an executor task throws") {
    val g = TestGraphs.labeledTiny
    // Vertex 0's smallest neighbour becomes -1: its list stays sorted, the
    // driver-side single-edge level skips it (only u < v edges), and the
    // first level-2 extension that scans vertex 0 reads label(-1) on an
    // executor. Without label pruning the graph is mined as given.
    val nbrs = g.nbrs.clone()
    nbrs(g.offsets(0)) = -1
    val bad = new CSRGraph(g.n, g.offsets, nbrs, g.labels)
    assertReleasesOnFailure[SparkException] {
      Fsm.run(spark, bad, Fsm.FsmConfig(minSupport = 1, labelPruning = false))
    }
  }
}
