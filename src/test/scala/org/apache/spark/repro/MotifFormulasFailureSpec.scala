package org.apache.spark.repro

import org.apache.spark.SparkException
import repro.TestGraphs
import repro.graph.CSRGraph
import repro.mc.MotifFormulas

class MotifFormulasFailureSpec extends FaultInjection {

  test("fourCyclesNonInduced releases the graph broadcast when an executor task throws") {
    val g = TestGraphs.plSkew
    // The last vertex's last neighbour id is cut off: the offsets now point
    // past the end of the neighbour array, so the wedge scan over that
    // vertex throws on an executor.
    val bad = new CSRGraph(g.n, g.offsets, g.nbrs.dropRight(1), g.labels)
    assertReleasesOnFailure[SparkException] {
      MotifFormulas.fourCyclesNonInduced(spark, bad)
    }
  }
}
