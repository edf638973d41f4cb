package repro.engine

import repro.{SparkSpec, TestGraphs}
import repro.graph.CSRGraph
import repro.pattern.{Pattern, Patterns}
import repro.plan.{Planner, SearchPlan}

/** Edge-task leaves that count over owner rows against the list merges
  * they replace. A fixture padded with isolated vertices above n − 1 has
  * the same arcs, tasks and merges, but rows too long for
  * [[DfsEngine.ownerRowsFit]], so it runs the list kernels: every counted
  * field of the two runs must agree.
  */
class OwnerRowsSpec extends SparkSpec {

  private val configs = Seq("default" -> DfsConfig(), "lgs" -> DfsConfig(lgs = true))

  /** Whether `cfg` runs `plan` on `g` as edge tasks whose leaf counts over
    * owner rows.
    */
  private def onRows(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig): Boolean = {
    val (graph, planX, lgs) = WorkEntries.prepared(g, plan, cfg)
    new PlanExecutor(graph, planX, cfg, lgs).rowLeaf
  }

  /** `g` with isolated vertices appended until its rows no longer fit. */
  private def padded(g: CSRGraph): CSRGraph =
    Iterator.iterate(g.n)(_ + 64)
      .map(n => new CSRGraph(n, g.offsets ++ Array.fill(n - g.n)(g.numArcs), g.nbrs, g.labels))
      .find(!DfsEngine.ownerRowsFit(_)).get

  /** Each slot's work + 1, keyed by slot, from one executor running the
    * prepared search's slots in `order`.
    */
  private def slotWork(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig, order: Seq[Int]): Map[Int, Long] = {
    val (graph, planX, lgs) = WorkEntries.prepared(g, plan, cfg)
    val ex = new PlanExecutor(graph, planX, cfg, lgs)
    order.flatMap { s =>
      val (tasks, ops) = (ex.tasksRun, ex.wc.ops)
      ex.runSlot(s)
      if (ex.tasksRun > tasks) Some(s -> (ex.wc.ops - ops + 1)) else None
    }.toMap
  }

  /** The row run of `plan` on `g` equals the list run on `g` padded in
    * every counted field, and Spark, local and naive counts agree.
    */
  private def assertRowsExact(g: CSRGraph, p: Pattern, induced: Boolean, cfg: DfsConfig, clue: String): Unit = {
    val plan = Planner.plan(p, induced)
    val pad = padded(g)
    assert(onRows(g, plan, cfg) && !onRows(pad, plan, cfg), clue)
    val rows = DfsEngine.runLocal(g, plan, cfg)
    val lists = DfsEngine.runLocal(pad, plan, cfg)
    assert(rows.count == lists.count, clue)
    assert(rows.setOpWork == lists.setOpWork, clue)
    assert(rows.levelNodes.toSeq.drop(1) == lists.levelNodes.toSeq.drop(1), clue)
    assert(rows.tasks == lists.tasks && rows.bufferSavedWork == lists.bufferSavedWork, clue)
    assert(DfsEngine.perTaskWork(g, plan, cfg).toSeq == DfsEngine.perTaskWork(pad, plan, cfg).toSeq, clue)
    val dist = DfsEngine.run(spark, g, plan, cfg)
    assert(dist.count == rows.count && dist.setOpWork == rows.setOpWork && dist.tasks == rows.tasks, clue)
    assert(dist.levelNodes.toSeq == rows.levelNodes.toSeq, clue)
    assert(rows.count == NaiveMatcher.countUnique(g, p, induced), clue)
  }

  private val motifs: Seq[(String, Pattern, Boolean)] = for {
    p <- Patterns.motifs(4) ++ Patterns.motifs(5)
    induced <- Seq(false, true)
  } yield (WorkEntries.motifName(p) + (if (induced) "-induced" else ""), p, induced)

  // The plans whose leaf qualifies: one intersection N(v1) ∩ N(v2) above v0
  // (the 4-cycle) and that intersection less N(v0) (the induced 4-cycle).
  // The 5-vertex motif whose leaf intersects N(v0), N(v2) and N(v3) above
  // v1 keeps lists: its bound is not the owner.
  test("the leaves that count over owner rows are the 4-cycle's, induced or not") {
    val c4 = WorkEntries.motifName(Patterns.cycle4)
    for (cfg <- configs.map(_._2)) {
      val qualifying = motifs.filter { case (_, p, induced) =>
        onRows(TestGraphs.plMild, Planner.plan(p, induced), cfg) }.map(_._1).toSet
      assert(qualifying == Set(c4, s"$c4-induced"), cfg)
    }
  }

  for ((cName, cfg) <- configs; (name, p, induced) <- motifs if onRows(TestGraphs.plMild, Planner.plan(p, induced), cfg))
    test(s"owner rows count and work as the padded fixture's list merges: $name under $cName") {
      for ((gName, g) <- TestGraphs.forMatching) assertRowsExact(g, p, induced, cfg, s"$name $cName $gName")
    }

  /** Graphs of n vertices whose owners and row ends sit on and beside word
    * edges: a clique on {0, 1, 62, 63, 64, 65, n − 2, n − 1} (n − 1 owns no
    * arc to a higher id), vertices whose lists end at 63, 64 or 65, and
    * random edges among the rest.
    */
  private def wordEdgeGraph(n: Int, seed: Long): CSRGraph = {
    val rnd = new scala.util.Random(seed)
    val core = Seq(0, 1, 62, 63, 64, 65, n - 2, n - 1).filter(_ < n).distinct
    val ends = Seq(63, 64, 65).filter(_ < n)
    // a vertex ending at t: adjacent to t and to three random lower ids
    val enders = ends.map(t => (t - 21) -> t)
    val fixed = core.toSet ++ enders.map(_._1)
    val es = (for (u <- core; v <- core if u < v) yield (u, v)) ++
      enders.flatMap { case (x, t) => (t +: Seq.fill(3)(rnd.nextInt(x))).distinct.filter(_ != x).map(v => (math.min(x, v), math.max(x, v))) } ++
      (for { u <- 0 until n; v <- u + 1 until n if !fixed(u) && !fixed(v) && rnd.nextDouble() < 0.12 } yield (u, v))
    TestGraphs.checked(CSRGraph.fromEdges(n, es.distinct))
  }

  private val wordEdges: Seq[(String, CSRGraph)] =
    Seq(64, 65, 66, 128, 130).map(n => s"word-edges-$n" -> wordEdgeGraph(n, seed = n))

  for ((gName, g) <- wordEdges; induced <- Seq(false, true))
    test(s"owner rows are exact across word edges: 4-cycle induced=$induced on $gName") {
      for (v <- Seq(63, 64, 65).filter(_ < g.n)) assert(g.deg(v) > 0, s"$gName vertex $v")
      for ((cName, cfg) <- configs) assertRowsExact(g, Patterns.cycle4, induced, cfg, s"$gName $cName")
    }

  test("owner rows serve slots run out of order: each slot's work is that of the in-order pass") {
    for ((gName, g) <- Seq("pl-mild" -> TestGraphs.plMild, "word-edges-130" -> wordEdges.last._2);
         induced <- Seq(false, true)) {
      val plan = Planner.plan(Patterns.cycle4, induced)
      val cfg = DfsConfig()
      assert(onRows(g, plan, cfg))
      val slots = 0 until g.numArcs
      val inOrder = slotWork(g, plan, cfg, slots)
      assert(inOrder.size == g.numEdges)
      assert(slotWork(g, plan, cfg, slots.reverse) == inOrder, s"$gName decreasing")
      assert(slotWork(g, plan, cfg, new scala.util.Random(5).shuffle(slots.toVector)) == inOrder, s"$gName shuffled")
    }
  }
}
