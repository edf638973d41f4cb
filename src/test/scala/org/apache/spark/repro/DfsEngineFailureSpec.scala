// Under org.apache.spark: the driver's BlockManager is private[spark].
package org.apache.spark.repro

import org.apache.spark.{SparkEnv, SparkException}
import org.apache.spark.storage.BroadcastBlockId
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TestGraphs}
import repro.engine.{DfsConfig, DfsEngine}
import repro.graph.CSRGraph
import repro.pattern.Patterns
import repro.plan.Planner

/** Fault injection: an executor task that throws must fail the run and
  * still release the graph broadcast.
  */
class DfsEngineFailureSpec extends SparkSpec {

  /** Broadcast value blocks (not pieces) in the driver that hold a graph. */
  private def graphBroadcasts(): Set[BroadcastBlockId] = {
    val bm = SparkEnv.get.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(_, "") => true
      case _ => false
    }.collect { case id: BroadcastBlockId => id }
      .filter(id => bm.getLocalValues(id).exists(_.data.toList.exists(_.isInstanceOf[CSRGraph])))
      .toSet
  }

  test("DfsEngine.run releases the graph broadcast when an executor task throws") {
    val g = TestGraphs.k7
    // Vertex 0's largest neighbour becomes an id past the end of the graph:
    // lists stay sorted, tasks build on the driver, and the first set op
    // that reads the bad vertex's list throws on an executor.
    val nbrs = g.nbrs.clone()
    nbrs(g.offsets(1) - 1) = g.n + 5
    val bad = new CSRGraph(g.n, g.offsets, nbrs, g.labels)
    spark.sparkContext // the session must exist before the block manager is read
    val before = graphBroadcasts()
    intercept[SparkException] {
      DfsEngine.run(spark, bad, Planner.plan(Patterns.diamond, induced = false), DfsConfig(orientation = false))
    }
    // destroy() removes the blocks asynchronously
    eventually(timeout(10.seconds), interval(100.millis)) {
      assert((graphBroadcasts() -- before).isEmpty)
    }
  }
}
