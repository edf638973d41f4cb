package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.cost.CostModel
import repro.engine.{DfsConfig, DfsEngine}
import repro.fsm.Fsm
import repro.graph.{CSRGraph, DataGraphs, SynthGraphs}
import repro.mc.MotifFormulas
import repro.pattern.{Pattern, Patterns}
import repro.plan.{Planner, SearchPlan}
import repro.sched.Scheduler
import repro.bench.Tables

/** What one query returned. `counts` are checked values keyed by what they
  * count ("4CL/Or"): every query or reference run that reports a key must
  * agree on it. `stats` are the layer counters the query adds to its pass.
  */
final case class Result(counts: Map[String, Long], stats: Map[String, Double] = Map.empty)

/** A named call into the program. */
final case class Query(id: String, body: Ctx => Result)

/** Graphs plus the Spark session and tracer that query bodies call through.
  * Every call into a layer goes through `tr`, so a traced pass records it.
  */
final class Ctx(val spark: SparkSession, val graphs: Map[String, CSRGraph], val tr: Tracer) {
  def plan(p: Pattern, induced: Boolean, countingOnly: Boolean = false): SearchPlan =
    tr("plan.plan", "plan")(Planner.plan(p, induced, countingOnly))

  /** One `DfsEngine.run` query; its set-op work and tree size become stats. */
  def dfs(key: String, graph: String, p: Pattern, induced: Boolean, cfg: DfsConfig): Result = {
    val pl = plan(p, induced, cfg.countingOnly)
    val m = tr("engine.run", "engine")(DfsEngine.run(spark, graphs(graph), pl, cfg))
    Result(Map(key -> m.count), Map(
      "setops.work" -> m.setOpWork.toDouble,
      "setops.buffer_saved_work" -> m.bufferSavedWork.toDouble,
      "engine.tasks" -> m.tasks.toDouble,
      "engine.tree_nodes" -> m.levelNodes.sum.toDouble))
  }
}

/** @param graphs     graph name → generator from the workload seed; run during set-up
  * @param queries    one pass, issued back to back by one client thread
  * @param references independent paths run once, outside the timed passes
  * @param recorded   counts at the default seed (EXPERIMENTS.md graphs)
  * @param heaviest   single-threaded `runLocal` of the heaviest query
  */
final case class Workload(
    name: String,
    graphs: Seq[(String, Long => CSRGraph)],
    queries: Seq[Query],
    references: Seq[Query],
    recorded: Map[String, Long],
    heaviest: Option[Ctx => Unit],
)

object Workloads {
  /** G²Miner config and the CPU/BFS baseline config that `Tables` runs. */
  val G2 = DfsConfig(lgs = true)
  val Base = DfsConfig(orientation = false, lgs = false)

  /** Lj at half the vertices and edges, other parameters unchanged: its
    * induced 3-star pass takes about 1 s on 4 cores where full Lj takes
    * about 20 s, which would leave no room for repeated passes in a run.
    */
  val ljHalf: DataGraphs.Spec = DataGraphs.lj.copy(name = "Lj/2", n = DataGraphs.lj.n / 2, e = DataGraphs.lj.e / 2)

  /** Seed 0 keeps the spec's own seed; any other seed derives a new one. */
  def specSeed(spec: DataGraphs.Spec, seed: Long): Long =
    if (seed == 0) spec.seed else new java.util.SplittableRandom(spec.seed * 1000003L + seed).nextLong()

  /** Generates directly, bypassing `DataGraphs.build`'s name-keyed cache. */
  def generate(spec: DataGraphs.Spec, seed: Long): CSRGraph =
    SynthGraphs.powerLaw(spec.n, spec.e, spec.alpha, specSeed(spec, seed), spec.labels,
      closure = spec.closure, plantCliques = spec.cliques)

  private def generator(spec: DataGraphs.Spec): (String, Long => CSRGraph) = spec.name -> (generate(spec, _))

  /** The seed-0 graph with its vertex ids permuted by the seed: the same
    * graph up to isomorphism, so every count and the work are the same at
    * every seed, while ids, partitioning and hash order change.
    */
  private def permuted(spec: DataGraphs.Spec, seed: Long): CSRGraph = {
    val g = generate(spec, 0)
    if (seed == 0) g
    else {
      val rnd = new java.util.Random(specSeed(spec, seed))
      val perm = Array.range(0, g.n)
      for (i <- g.n - 1 to 1 by -1) { val j = rnd.nextInt(i + 1); val t = perm(i); perm(i) = perm(j); perm(j) = t }
      val edges = g.canonicalEdges.toIndexedSeq.map(e => (perm((e >>> 32).toInt), perm((e & 0xffffffffL).toInt)))
      val labels = new Array[Int](g.n)
      for (v <- 0 until g.n) labels(perm(v)) = g.label(v)
      CSRGraph.fromEdges(g.n, edges, labels)
    }
  }

  val listing: Workload = Workload(
    "listing",
    Seq(generator(DataGraphs.or), generator(DataGraphs.lj)),
    Seq(
      Query("tc_or", _.dfs("TC/Or", "Or", Patterns.triangle, induced = false, G2)),
      Query("cl4_or", _.dfs("4CL/Or", "Or", Patterns.clique(4), induced = false, G2)),
      Query("cl4_or_base", _.dfs("4CL/Or", "Or", Patterns.clique(4), induced = false, Base)),
      Query("cl5_lj", _.dfs("5CL/Lj", "Lj", Patterns.clique(5), induced = false, G2)),
      Query("cl5_lj_base", _.dfs("5CL/Lj", "Lj", Patterns.clique(5), induced = false, Base)),
      Query("dia_or", _.dfs("dia/Or", "Or", Patterns.diamond, induced = false, G2)),
      Query("dia_or_base", _.dfs("dia/Or", "Or", Patterns.diamond, induced = false, Base)),
      Query("dia_or_count", _.dfs("dia/Or", "Or", Patterns.diamond, induced = false, DfsConfig(countingOnly = true))),
      Query("c4_or", _.dfs("c4/Or", "Or", Patterns.cycle4, induced = false, G2)),
    ),
    Seq(
      Query("ref_tc_or_formula", c => {
        val r = c.tr("mc.threeMotifs", "mc")(MotifFormulas.threeMotifs(c.graphs("Or")))
        Result(Map("TC/Or" -> r.induced.collectFirst { case (p, n) if p.isClique => n }.get))
      }),
      Query("ref_c4_or_formula", c => {
        val (c4, _) = c.tr("mc.fourCyclesNonInduced", "mc")(MotifFormulas.fourCyclesNonInduced(c.spark, c.graphs("Or")))
        Result(Map("c4/Or" -> c4))
      }),
    ),
    Map("TC/Or" -> 486514L, "4CL/Or" -> 2571830L, "5CL/Lj" -> 18495227L,
      "dia/Or" -> 38697765L, "c4/Or" -> 39511065L),
    Some(c => DfsEngine.runLocal(c.graphs("Or"), Planner.plan(Patterns.cycle4, induced = false), G2)),
  )

  /** 4-motifs in the order the query ids list them. */
  private val motifs4: Seq[(String, Pattern)] = Seq(
    "star" -> Patterns.star(4), "path" -> Patterns.path(4), "cycle" -> Patterns.cycle4,
    "tailed" -> Patterns.tailedTriangle, "diamond" -> Patterns.diamond, "clique" -> Patterns.clique(4))
  private val motifs3: Seq[(String, Pattern)] = Seq("wedge" -> Patterns.wedge, "tri" -> Patterns.triangle)

  private def motifName(names: Seq[(String, Pattern)], p: Pattern): String =
    names.collectFirst { case (n, q) if q.isomorphicTo(p) => n }.get

  /** Cliques are planned non-induced (same count, enables orientation), as
    * `Tables.motifWorkload` does.
    */
  private def motifQuery(id: String, key: String, graph: String, p: Pattern, cfg: DfsConfig): Query =
    Query(id, _.dfs(key, graph, p, induced = !p.isClique, cfg))

  val motif: Workload = Workload(
    "motif",
    Seq(generator(ljHalf), generator(DataGraphs.tw2)),
    motifs4.map { case (n, p) => motifQuery(s"mc4_lj_$n", s"4MC/Lj/2/$n", "Lj/2", p, G2) } ++
    Seq(Query("mc4_lj_formula", c => {
      val r = c.tr("mc.fourMotifs", "mc")(MotifFormulas.fourMotifs(c.spark, c.graphs("Lj/2")))
      val perMotif = r.induced.map { case (p, n) => s"4MC/Lj/2/${motifName(motifs4, p)}" -> n }
      Result(perMotif.toMap + ("4MC/Lj/2" -> r.induced.map(_._2).sum), Map("mc.work" -> r.work.toDouble))
    })) ++
    motifs3.flatMap { case (n, p) => Seq(
      motifQuery(s"mc3_tw2_$n", s"3MC/Tw2/$n", "Tw2", p, G2),
      motifQuery(s"mc3_tw2_${n}_base", s"3MC/Tw2/$n", "Tw2", p, Base)) } :+
    Query("sched_tw2", c => {
      val g = c.graphs("Tw2")
      // Per-task work and simulated 8-device speed-up, as Tables.multiGpuScaling computes them.
      val work = motifs3.map { case (_, p) =>
        val pl = c.plan(p, induced = true)
        c.tr("engine.perTaskWork", "engine")(DfsEngine.perTaskWork(g, pl, DfsConfig(orientation = false)))
      }.reduce((a, b) => a.zip(b).map { case (x, y) => x + y })
      val thr = CostModel.G2MinerGpu.device.elemOpsPerSec * CostModel.G2MinerGpu.efficiency
      def speedup8(policy: Scheduler.Policy): Double = c.tr("sched.simulate", "sched") {
        Scheduler.simulate(work, 1, policy, thr).makespanSeconds / Scheduler.simulate(work, 8, policy, thr).makespanSeconds
      }
      val chunked = Scheduler.ChunkedRoundRobin(Scheduler.paperChunkSize(work.length, warpsPerDevice = 512))
      Result(Map("sched/Tw2/work" -> work.sum),
        Map("sched.speedup8_chunked" -> speedup8(chunked), "sched.speedup8_even" -> speedup8(Scheduler.EvenSplit)))
    }),
    Seq(Query("ref_mc3_tw2_formula", c => {
      val r = c.tr("mc.threeMotifs", "mc")(MotifFormulas.threeMotifs(c.graphs("Tw2")))
      val perMotif = r.induced.map { case (p, n) => s"3MC/Tw2/${motifName(motifs3, p)}" -> n }
      Result(perMotif.toMap + ("3MC/Tw2" -> r.induced.map(_._2).sum))
    })),
    Map("4MC/Lj/2" -> 91032470L, "3MC/Tw2" -> 84533460L),
    Some(c => DfsEngine.runLocal(c.graphs("Lj/2"), Planner.plan(Patterns.star(4), induced = true), G2)),
  )

  /** Mi at a quarter of its vertices and edges, other parameters unchanged,
    * and regenerated only at seed 0 (other seeds permute its ids). 3-FSM on
    * full Mi at Table 8's loosest threshold takes about 17 s a pass. On any
    * small power-law graph its work follows the few highest degrees and the
    * label counts near σ: over ten generator seeds the level-3 embeddings
    * spread by a third of their median, on Mi/4 and on Mi/2 alike; at
    * Mi's tightest threshold (σ = 40) they halve or double.
    */
  val miQuarter: DataGraphs.Spec = DataGraphs.mi.copy(name = "Mi/4", n = DataGraphs.mi.n / 4, e = DataGraphs.mi.e / 4)

  /** Table 8's loosest column, σ = 300 scaled to the graph's size (= 4). */
  val fsmSigma: Long = Tables.scaledSigma(miQuarter, 300, generate(_, 0))

  private def fsmQuery(id: String, pruning: Boolean): Query = Query(id, c => {
    val r = c.tr("fsm.run", "fsm")(
      Fsm.run(c.spark, c.graphs("Mi/4"), Fsm.FsmConfig(minSupport = fsmSigma, labelPruning = pruning)))
    val m = r.metrics
    // Order-independent digest of the frequent set (pattern code, support).
    val digest = r.frequent.toSeq.sorted.hashCode.toLong
    Result(Map("FSM/Mi/4" -> r.frequent.size.toLong, "FSM/Mi/4/digest" -> digest), Map(
      "fsm.embeddings" -> m.levelEmbeddings.sum.toDouble,
      "fsm.candidate_patterns" -> m.candidatePatterns.sum.toDouble,
      "fsm.frequent_patterns" -> m.frequentPatterns.sum.toDouble,
      "fsm.extension_work" -> m.extensionWork.toDouble))
  })

  val fsm: Workload = Workload(
    "fsm",
    Seq(miQuarter.name -> (permuted(miQuarter, _))),
    Seq(fsmQuery("fsm_mi", pruning = true)),
    Seq(fsmQuery("ref_fsm_mi_unpruned", pruning = false)),
    Map("FSM/Mi/4" -> 715L),
    None,
  )

  val all: Seq[Workload] = Seq(listing, motif, fsm)
}
