// Under org.apache.spark: draining the listener bus is private[spark].
package org.apache.spark.repro

import repro.{SparkSpec, TestGraphs}
import repro.fsm.Fsm
import repro.graph.DataGraphs

/** `Fsm.run` submits one Spark job per level: the shuffle keyed by pattern
  * both dedupes a level and counts its supports.
  */
class FsmJobsSpec extends SparkSpec {

  private lazy val miTiny = TestGraphs.tiny(DataGraphs.mi)

  /** Spark jobs `body` submits, read back through a job group. */
  private def jobsOf(group: String)(body: => Any): Int = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
    // the status store learns of jobs from the listener bus, asynchronously
    sc.listenerBus.waitUntilEmpty()
    sc.statusTracker.getJobIdsForGroup(group).length
  }

  for (blockRows <- Seq(64L, 1L << 16))
    test(s"Fsm.run with maxEdges = 3 submits one Spark job per level (blockRows=$blockRows)") {
      val jobs = jobsOf(s"fsm-jobs-$blockRows") {
        Fsm.run(spark, miTiny, Fsm.FsmConfig(minSupport = 1, maxEdges = 3, blockRows = blockRows))
      }
      assert(jobs == 3)
    }
}
