package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.graph.{CSRGraph, DataGraphs}
import repro.setops.{SetOps, WorkCounter}
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

/** The repository benchmark: one named workload, closed loop, one client.
  *
  *   perfbench/run.py --workload listing|motif|fsm --seed N --seconds S --trace 0|1
  *
  * Set-up (Spark session + graph generation) runs `SetupRepeats` times and reports
  * the median. Then one cold pass, then warm passes until `--seconds` have
  * passed; every pass issues the workload's whole query list. Independent
  * reference paths run once after the passes, and every count is checked
  * against them, against the recorded counts at seed 0, and against every
  * other query reporting the same key. With `--trace 1` warm passes
  * alternate untraced and traced, and the layer probes run at the end.
  * The last stdout line is the JSON result; the exit code is 1 when any
  * query failed.
  */
object Bench {
  final case class Opts(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        expect: Map[String, Long], out: java.nio.file.Path)

  final case class Run(query: String, seconds: Double, outcome: Try[Result])
  final case class Pass(seconds: Double, runs: Vector[Run], traced: Option[TracedPass])
  final case class TracedPass(spans: Seq[Span], spark: SparkRecorder#Snapshot)

  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  val SetupRepeats = 7

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList)
    HeapPeak.install()
    val origin = System.nanoTime()

    // --- set-up, several times; the last one is kept --------------------
    var spark: SparkSession = null
    var graphs = Map.empty[String, CSRGraph]
    val setupS = mutable.ArrayBuffer.empty[Double]
    val buildS = mutable.ArrayBuffer.empty[Double]
    for (_ <- 1 to SetupRepeats) {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session(opts.out)
      val t1 = System.nanoTime()
      graphs = opts.workload.graphs.map { case (n, gen) => n -> gen(opts.seed) }.toMap
      val t2 = System.nanoTime()
      setupS += (t2 - t0) / 1e9
      buildS += (t2 - t1) / 1e9
    }
    val sc = spark.sparkContext
    val tr = new Tracer(sc)
    val recorder = new SparkRecorder
    if (opts.trace) sc.addSparkListener(recorder)
    val ctx = new Ctx(spark, graphs, tr)

    def pass(traced: Boolean): Pass = {
      System.gc()
      if (traced) recorder.drain(sc)
      tr.on = traced
      val mark = tr.spans.length
      HeapPeak.armed = true
      val t0 = System.nanoTime()
      val runs = tr("pass", "bench") {
        opts.workload.queries.toVector.map(q => runQuery(ctx, q))
      }
      val secs = (System.nanoTime() - t0) / 1e9
      HeapPeak.armed = false
      tr.on = false
      val tracedPass = if (!traced) None else {
        val snap = recorder.drain(sc)
        PerLayer.addSparkSpans(tr, snap)
        Some(TracedPass(tr.spans.drop(mark).toSeq, snap))
      }
      Pass(secs, runs, tracedPass)
    }

    // --- passes ------------------------------------------------------------
    val cold = pass(traced = false)
    val warm = mutable.ArrayBuffer.empty[Pass]
    val tWarm = System.nanoTime()
    def untracedCount = warm.count(_.traced.isEmpty)
    def tracedCount = warm.count(_.traced.nonEmpty)
    while ((System.nanoTime() - tWarm) / 1e9 < opts.seconds || untracedCount < 2 || (opts.trace && tracedCount < 2))
      warm += pass(traced = opts.trace && warm.length % 2 == 1)

    // --- independent reference paths, once, outside the timed passes ------
    tr.on = opts.trace
    val refs = opts.workload.references.toVector.map(q => runQuery(ctx, q))
    if (opts.trace) PerLayer.addSparkSpans(tr, recorder.drain(sc))

    val check = Check(opts.workload, opts.seed, opts.expect, refs, cold +: warm.toVector)
    val untraced = warm.filter(_.traced.isEmpty).toVector
    val passS = untraced.map(_.seconds)

    val human = mutable.ArrayBuffer.empty[(String, Double, String)]
    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) Seq(
        ("setup_s", median(setupS.toSeq), "s"),
        ("cold_pass_s", cold.seconds, "s"),
        ("pass_s", median(passS), "s"),
        ("pass_max_s", passS.max, "s"),
        ("heap_live_peak_mb", HeapPeak.peakMb, "MB"))
      else {
        val probes = layerProbes(ctx, opts.workload, opts.seed)
        tr.on = false
        val traced = warm.filter(_.traced.nonEmpty).toVector
        val tracedS = traced.map(_.seconds)
        val perLayer = PerLayer(untraced, traced)
        Seq(
          ("graph.build_s", median(buildS.toSeq), "s"),
          ("fail_frac", check.failFrac, "ratio"),
          ("trace.overhead_frac", median(tracedS) / median(passS) - 1, "ratio")) ++ probes ++ perLayer
      }
    human += (("fail_frac", check.failFrac, "ratio"))
    human += (("warm_passes", passS.length.toDouble, "count"))
    if (!opts.trace) human ++= PerLayer.queryTimes(untraced, opts.workload.queries.map(_.id))

    if (opts.trace) tr.writeJsonl(opts.out.resolve(s"spans/spans-${opts.workload.name}-${opts.seed}.jsonl"), origin)
    spark.stop()

    check.report.foreach(l => println(s"check: $l"))
    println("passes: " + (cold +: warm.toVector).map(p => f"${p.seconds}%.3f${if (p.traced.nonEmpty) "t" else ""}").mkString(" "))
    (metrics ++ human).distinctBy(_._1).foreach { case (n, v, u) => println(f"$n%-32s ${fmt(v)}%s $u") }
    println(json(check.correct, check.attempted, check.failed, metrics))
    sys.exit(if (check.correct) 0 else 1)
  }

  def runQuery(ctx: Ctx, q: Query): Run = {
    val t0 = System.nanoTime()
    val out = Try(ctx.tr(s"query.${q.id}", "bench")(q.body(ctx)))
    Run(q.id, (System.nanoTime() - t0) / 1e9, out)
  }

  def session(workDir: java.nio.file.Path): SparkSession = {
    SparkSession.clearActiveSession(); SparkSession.clearDefaultSession()
    SparkSession.builder
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      // the session settings of jobs/TableJobs.scala
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
  }

  /** Outside-in layer probes: public functions only, each timed as the
    * median of three repetitions.
    */
  def layerProbes(ctx: Ctx, w: Workload, seed: Long): Seq[(String, Double, String)] = {
    def graph(name: String, spec: DataGraphs.Spec) = ctx.graphs.getOrElse(name, Workloads.generate(spec, seed))
    val or = graph("Or", DataGraphs.or)
    val lj = graph("Lj", DataGraphs.lj)
    def timed(f: => Unit): Double = { val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9 }
    val tr = ctx.tr
    val intersect = tr("probe.setops.intersect", "setops") {
      val edges = or.canonicalEdges
      val out = new Array[Int](math.max(1, or.maxDegree))
      Seq.fill(3) {
        val wc = new WorkCounter
        val s = timed(edges.foreach { e =>
          val u = (e >>> 32).toInt; val v = (e & 0xffffffffL).toInt
          SetOps.intersect(or.nbrs, or.nbrStart(u), or.deg(u), or.nbrs, or.nbrStart(v), or.deg(v), out, wc)
        })
        s * 1e9 / math.max(1L, wc.ops)
      }
    }
    val orient = tr("probe.graph.oriented", "graph") {
      Seq.fill(3)(timed(new CSRGraph(or.n, or.offsets, or.nbrs, or.labels).oriented) * 1e3)
    }
    val lgs = tr("probe.graph.localGraph", "graph") {
      Seq.fill(3) {
        val wc = new WorkCounter
        timed((0 until lj.n).foreach(v => lj.localGraph(v, wc))) * 1e3
      }
    }
    val local = w.heaviest.fold(0.0)(h => tr("probe.engine.runLocal", "engine")(timed(h(ctx))))
    Seq(
      ("setops.intersect_ns_per_step", median(intersect), "ns"),
      ("graph.orient_ms", median(orient), "ms"),
      ("graph.lgs_build_ms", median(lgs), "ms"),
      ("engine.local_s", local, "s"))
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  def fmt(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  def json(correct: Boolean, attempted: Int, failed: Int, ms: Seq[(String, Double, String)]): String =
    ms.map { case (n, v, u) => s""""$n": {"value": ${fmt(v)}, "unit": "$u"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")

  private def parse(args: List[String]): Opts = {
    val kv = args.grouped(2).collect { case List(k, v) if k.startsWith("--") => k.drop(2) -> v }.toList
    val m = kv.toMap
    val expect = kv.collect { case ("expect", e) =>
      val Array(k, v) = e.split("=", 2); k -> v.toLong }.toMap
    val name = m.getOrElse("workload", usage("--workload is required"))
    Opts(
      Workloads.all.find(_.name == name).getOrElse(usage(s"unknown workload $name")),
      m.getOrElse("seed", "0").toLong,
      m.getOrElse("seconds", "10").toDouble,
      m.getOrElse("trace", "0") == "1",
      expect,
      java.nio.file.Paths.get(m.getOrElse("out", ".bench_out")).toAbsolutePath)
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg; workloads: ${Workloads.all.map(_.name).mkString(", ")}")
    sys.exit(2)
  }
}

/** Every count of the run against its expected value. A key's expected
  * value is, in order: a `--expect` override, the recorded count (seed 0
  * only), a reference run's value, or the first value any query reported.
  * A query that throws or reports any other value has failed.
  */
final case class Check(attempted: Int, failed: Int, report: Seq[String]) {
  def correct: Boolean = failed == 0
  def failFrac: Double = failed.toDouble / math.max(1, attempted)
}

object Check {
  def apply(w: Workload, seed: Long, overrides: Map[String, Long], refs: Vector[Bench.Run],
            passes: Vector[Bench.Pass]): Check = {
    val expected = mutable.LinkedHashMap.empty[String, Long]
    expected ++= (if (seed == 0) w.recorded else Map.empty) ++ overrides
    val report = mutable.ArrayBuffer.empty[String]
    var failed = 0
    def judge(r: Bench.Run, where: String): Unit = r.outcome match {
      case Failure(e) =>
        failed += 1; report += s"$where ${r.query} threw $e"
      case Success(res) =>
        val bad = res.counts.toSeq.sortBy(_._1).filter { case (k, v) => expected.getOrElseUpdate(k, v) != v }
        if (bad.nonEmpty) {
          failed += 1
          report += s"$where ${r.query}: " + bad.map { case (k, v) => s"$k=$v expected ${expected(k)}" }.mkString(", ")
        }
    }
    refs.foreach(judge(_, "reference"))
    passes.zipWithIndex.foreach { case (p, i) => p.runs.foreach(judge(_, s"pass $i")) }
    val attempted = refs.length + passes.map(_.runs.length).sum
    val summary = expected.toSeq.map { case (k, v) => s"$k=$v" }.mkString(" ")
    Check(attempted, failed, report.toSeq :+ s"$failed of $attempted query runs failed; counts: $summary")
  }
}
