package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One traced interval on the benchmark's clock (`System.nanoTime`).
  * `parent` is 0 for a top-level span.
  */
final case class Span(id: Int, parent: Int, name: String, layer: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Driver-side spans around every call the benchmark makes into a layer.
  * Spans stay in memory; [[Tracer.writeJsonl]] writes them when the run
  * ends. Spark jobs find their parent span through the local property
  * [[Tracer.SpanProperty]], which always names the innermost open span.
  * With `on = false` a span costs one branch.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._
  var on = false
  val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = List(0)
  private var nextId = 1
  /** nanoTime = epochMs * 1e6 − offset; Spark reports event times in epoch ms. */
  private val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  def epochMsToNs(ms: Long): Long = ms * 1000000L - offsetNs

  def apply[A](name: String, layer: String)(body: => A): A =
    if (!on) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.head
      stack = id :: stack
      sc.setLocalProperty(SpanProperty, id.toString)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        sc.setLocalProperty(SpanProperty, stack.head.toString)
        spans += Span(id, parent, name, layer, t0, t1)
      }
    }

  /** Record a span measured elsewhere (Spark jobs, stages and tasks). */
  def add(parent: Int, name: String, layer: String, startNs: Long, endNs: Long): Int = {
    val id = nextId; nextId += 1
    spans += Span(id, parent, name, layer, startNs, math.max(startNs, endNs))
    id
  }

  def writeJsonl(path: java.nio.file.Path, originNs: Long): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.sortBy(_.startNs).foreach { s =>
      w.write(f"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","layer":"${s.layer}",""" +
        f""""start_ms":${(s.startNs - originNs) / 1e6}%.3f,"end_ms":${(s.endNs - originNs) / 1e6}%.3f}""")
      w.newLine()
    } finally w.close()
  }
}

object Tracer {
  val SpanProperty = "perfbench.span"

  /** Blocking-path self time per layer: each span's duration minus the part
    * of it its children cover. Spark jobs are leaves here: the driver thread
    * is blocked for the whole job, whatever its stages and tasks overlap.
    */
  def selfTimeByLayer(spans: Seq[Span]): Map[String, Double] = {
    val children = spans.groupBy(_.parent)
    spans.groupMapReduce(_.layer) { s =>
      val kids = if (s.layer == "spark") Nil else children.getOrElse(s.id, Nil)
      (s.durNs - coveredNs(s, kids)) / 1e9
    }(_ + _)
  }

  private def coveredNs(s: Span, kids: Seq[Span]): Long = {
    var covered = 0L
    var end = s.startNs
    kids.map(k => (math.max(k.startNs, s.startNs), math.min(k.endNs, s.endNs)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
      .foreach { case (a, b) =>
        if (b > end) { covered += b - math.max(a, end); end = b }
      }
    covered
  }
}

/** Spark job, stage and task events of one pass, read back after the
  * listener bus is drained.
  */
final class SparkRecorder extends SparkListener {
  final case class Job(id: Int, span: Int, startMs: Long, endMs: Long, stages: Seq[Int])
  final case class Stage(id: Int, submitMs: Long, doneMs: Long)
  final case class Task(stage: Int, launchMs: Long, finishMs: Long, runMs: Long, cpuNs: Long, gcMs: Long,
                        shuffleWrite: Long, shuffleRead: Long, spill: Long, result: Long)
  final case class Snapshot(jobs: Vector[Job], stages: Vector[Stage], tasks: Vector[Task])

  private val starts = scala.collection.mutable.Map.empty[Int, (Int, Long, Seq[Int])]
  private val jobs = ArrayBuffer.empty[Job]
  private val stages = ArrayBuffer.empty[Stage]
  private val tasks = ArrayBuffer.empty[Task]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProperty))).fold(0)(_.toInt)
    starts(e.jobId) = (span, e.time, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    starts.remove(e.jobId).foreach { case (span, t0, st) => jobs += Job(e.jobId, span, t0, e.time, st) }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    for (a <- i.submissionTime; b <- i.completionTime) stages += Stage(i.stageId, a, b)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) tasks += Task(e.stageId, e.taskInfo.launchTime, e.taskInfo.finishTime,
      m.executorRunTime, m.executorCpuTime, m.jvmGCTime,
      m.shuffleWriteMetrics.bytesWritten, m.shuffleReadMetrics.totalBytesRead,
      m.diskBytesSpilled, m.resultSize)
  }

  /** Everything recorded since the last call; clears the recorder. */
  def drain(sc: SparkContext): Snapshot = {
    org.apache.spark.ListenerBusDrain(sc)
    synchronized {
      val s = Snapshot(jobs.toVector, stages.toVector, tasks.toVector)
      jobs.clear(); stages.clear(); tasks.clear()
      s
    }
  }
}

/** Largest post-GC heap occupancy: the heap pools' usage after each
  * collection, from the JVM's GC notifications, while `armed`.
  */
object HeapPeak {
  @volatile var armed = false
  private val peak = new AtomicLong(0L)
  private lazy val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (armed && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools.contains(pool) => u.getUsed }.sum
        peak.accumulateAndGet(used, (a: Long, b: Long) => math.max(a, b))
      }
  }

  def install(): Unit = {
    heapPools
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
      case _ => ()
    }
  }

  def peakMb: Double = peak.get / 1e6
}
