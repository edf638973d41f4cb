package repro.sched

import org.apache.spark.SparkContext
import scala.reflect.ClassTag

/** Multi-GPU task scheduling (§7.1), simulated over *measured* per-task
  * work. A task is one edge (or vertex) subtree of the DFS search; the
  * engines report each task's exact set-op work, so policy quality — the
  * paper's Fig. 8/9/10 story — is a pure function of the assignment. The
  * Spark passes over a broadcast graph place their tasks by one of them.
  */
object Scheduler {

  sealed trait Policy { def name: String }

  /** Policy 1: Ω split into n consecutive equal ranges. No overhead,
    * terrible balance on skewed graphs (hubs cluster in id ranges).
    */
  case object EvenSplit extends Policy { val name = "even-split" }

  /** Policies 2 and 3: chunks of `chunk` tasks assigned round-robin.
    * `chunk = 1` is plain round-robin (task j goes to queue j mod n:
    * fine-grained, per-task copy overhead); the paper's default is
    * c = α × totalWarps, α = 2.
    */
  final case class ChunkedRoundRobin(chunk: Int) extends Policy { val name = s"chunked-rr(c=$chunk)" }

  /** Device index for every task. */
  def assign(m: Int, n: Int, policy: Policy): Array[Int] = {
    val out = new Array[Int](m)
    policy match {
      case EvenSplit =>
        var i = 0
        while (i < m) { out(i) = math.min(n - 1, (i.toLong * n / math.max(1, m)).toInt); i += 1 }
      case ChunkedRoundRobin(c) =>
        require(c >= 1)
        var i = 0
        while (i < m) { out(i) = (i / c) % n; i += 1 }
    }
    out
  }

  /** Runs `slots` tasks on Spark by `ChunkedRoundRobin(1)` over P =
    * `defaultParallelism` partitions: partition p runs slots p, p + P, …,
    * in increasing order, as `part(shared, stripe)` over a broadcast of
    * `shared`, so the driver holds no task data. Results are combined with
    * `combine`; the broadcast is destroyed on success and on failure.
    */
  def roundRobinStripes[G: ClassTag, R: ClassTag](sc: SparkContext, shared: G, slots: Int)(
      part: (G, Range) => R)(combine: (R, R) => R): R = {
    val p = math.max(1, sc.defaultParallelism)
    val bc = sc.broadcast(shared)
    try sc.parallelize(0 until p, p).map(i => part(bc.value, stripe(i, p, slots))).reduce(combine)
    finally bc.destroy()
  }

  /** Stripe `i` of `ChunkedRoundRobin(1)` over `parts` queues: slots i,
    * i + parts, … below `slots`, in increasing order.
    */
  def stripe(i: Int, parts: Int, slots: Int): Range = i until slots by parts

  // §7.1: chunk multiplier α; devices of the paper's multi-GPU runs (Figs. 8–10)
  private val Alpha = 2
  private val Devices = 8
  // per-task overhead (ns) of the round-robin family, copies overlapped with compute (§7.1)
  private val CopyNsPerTask = 2.0

  /** Paper's chunk size: α × total warps, clamped so that every device
    * still receives several chunks when the task list is small relative to
    * the warp count (the paper's graphs guarantee m >> warps; scaled-down
    * inputs do not).
    */
  def paperChunkSize(m: Int, warpsPerDevice: Int): Int =
    math.max(1, math.min(Alpha * warpsPerDevice, m / (Devices * 4)))

  final case class SimOutcome(
      policy: String,
      n: Int,
      perDeviceWork: Vector[Long],
      perDeviceSeconds: Vector[Double],
      makespanSeconds: Double,
  )

  /** Simulate an n-device run: per-device time = assigned work / device
    * throughput + scheduling overhead (`CopyNsPerTask` per task for the
    * round-robin family).
    */
  def simulate(work: Array[Long], n: Int, policy: Policy, deviceThroughput: Double): SimOutcome = {
    val asg = assign(work.length, n, policy)
    val acc = new Array[Long](n)
    var i = 0
    while (i < work.length) { acc(asg(i)) += work(i); i += 1 }
    val copySecs = policy match {
      case EvenSplit => 0.0
      case _         => work.length.toDouble * CopyNsPerTask * 1e-9 / n
    }
    val secs = acc.map(w => w.toDouble / deviceThroughput + copySecs).toVector
    SimOutcome(policy.name, n, acc.toVector, secs, secs.max)
  }
}
