// Under org.apache.spark: the driver's BlockManager is private[spark].
package org.apache.spark.repro

import org.apache.spark.SparkEnv
import org.apache.spark.storage.BroadcastBlockId
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.graph.CSRGraph

/** Fault injection for the Spark paths: a run whose executor task throws
  * must still release its graph broadcast and every RDD it persisted.
  */
trait FaultInjection extends SparkSpec {

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

  /** Runs `body`, expects it to throw `E`, and checks that no graph
    * broadcast and no persisted RDD outlives it.
    */
  def assertReleasesOnFailure[E <: AnyRef](body: => Any)(implicit e: scala.reflect.ClassTag[E]): Unit = {
    val sc = spark.sparkContext // the session must exist before the block manager is read
    val broadcasts = graphBroadcasts()
    val persisted = sc.getPersistentRDDs.keySet
    intercept[E](body)
    assert(sc.getPersistentRDDs.keySet == persisted)
    // destroy() removes the blocks asynchronously
    eventually(timeout(10.seconds), interval(100.millis)) {
      assert((graphBroadcasts() -- broadcasts).isEmpty)
    }
  }
}
