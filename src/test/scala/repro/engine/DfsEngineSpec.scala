package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.CSRGraph
import repro.pattern.{Analyzer, Pattern, PatternNames, Patterns, SearchOrder}
import repro.plan.{LevelSpec, Planner, SearchPlan}
import repro.setops.{SetOps, WorkCounter}

/** The core correctness matrix: every pattern × every fixture × both
  * induced modes, DFS engine (all config variants) vs the pattern-oblivious
  * naive matcher. Runs locally (no Spark) — SparkDfsSpec covers the
  * distributed path — except the pinned-work tests, which check both.
  * Their tables are printed by `sbt "Test/runMain repro.engine.RecordWork"`
  * (see [[RecordWork]]), so a change of the work model re-records them by
  * command.
  */
class DfsEngineSpec extends AnyFunSuite {

  private val patterns: Seq[(String, Pattern)] =
    (Patterns.motifs(3) ++ Patterns.motifs(4)).map(p => PatternNames.nameOf(p) -> p) ++
      Seq("5-clique" -> Patterns.clique(5), "5-path" -> Patterns.path(5), "4-star" -> Patterns.star(5))

  // ---- exhaustive cross-check vs naive matcher -----------------------
  for {
    (gName, g) <- TestGraphs.forMatching
    (pName, p) <- patterns
    induced <- Seq(false, true)
  } test(s"DFS == naive: $pName on $gName induced=$induced") {
    val expected = NaiveMatcher.countUnique(g, p, induced)
    val plan = Planner.plan(p, induced)
    val m = DfsEngine.runLocal(g, plan, DfsConfig())
    assert(m.count == expected, s"plan=$plan")
  }

  // ---- configuration invariance ---------------------------------------
  private def allConfigs: Seq[(String, DfsConfig)] = Seq(
    "default" -> DfsConfig(),
    "no-orientation" -> DfsConfig(orientation = false),
    "pangolin-scan" -> DfsConfig(wholeListScans = true),
    "lgs" -> DfsConfig(lgs = true),
    "lgs-no-orient" -> DfsConfig(lgs = true, orientation = false),
    "everything-off" -> DfsConfig(orientation = false, wholeListScans = true),
  )

  for {
    (cfgName, cfg) <- allConfigs
    (pName, p) <- Seq("triangle" -> Patterns.triangle, "diamond" -> Patterns.diamond,
      "4-clique" -> Patterns.clique(4), "4-cycle" -> Patterns.cycle4,
      "3-star" -> Patterns.star(4))
  } test(s"config invariance: $cfgName for $pName on pl-mild") {
    val g = TestGraphs.plMild
    val induced = false
    val expected = NaiveMatcher.countUnique(g, p, induced)
    assert(DfsEngine.runLocal(g, Planner.plan(p, induced), cfg).count == expected)
  }

  for ((cfgName, cfg) <- allConfigs) test(s"config invariance (induced wedge): $cfgName") {
    val g = TestGraphs.plSkew
    val p = Patterns.wedge
    val expected = NaiveMatcher.countUnique(g, p, induced = true)
    assert(DfsEngine.runLocal(g, Planner.plan(p, induced = true), cfg).count == expected)
  }

  test("LGS equals global search for all hub 4-motifs on pl-dense") {
    val g = TestGraphs.plDense
    for (p <- Patterns.motifs(4).filter(_.hubVertices.nonEmpty); induced <- Seq(true, false)) {
      val plan = Planner.plan(p, induced)
      val a = DfsEngine.runLocal(g, plan, DfsConfig(lgs = true))
      val b = DfsEngine.runLocal(g, plan, DfsConfig(lgs = false))
      assert(a.count == b.count, s"${PatternNames.nameOf(p)} induced=$induced")
    }
  }

  test("LGS respects the input-aware degree threshold") {
    // the wedge plan is hub-rooted with no (v0, v1) condition: LGS runs one
    // vertex task per vertex, the global search one edge task per arc
    val plan = Planner.plan(Patterns.wedge, induced = false)
    assert(plan.hubRooted && plan.rootEdgeCond.isEmpty)
    val small = DfsEngine.runLocal(TestGraphs.star8, plan, DfsConfig(lgs = true))
    assert(small.count == 28 && small.tasks == TestGraphs.star8.n)
    // a hub above the threshold forbids LGS: edge tasks run, still exact
    val leaves = DfsEngine.LgsMaxDegree + 1
    val g = TestGraphs.starGraph(leaves)
    val m = DfsEngine.runLocal(g, plan, DfsConfig(lgs = true))
    assert(m.count == leaves.toLong * (leaves - 1) / 2)
    assert(m.tasks == g.numArcs)
  }

  // ---- counting-only fusion --------------------------------------------
  test("fused diamond counting equals listing count on every fixture") {
    val plan = Planner.plan(Patterns.diamond, induced = false, countingOnly = true)
    assert(plan.fusedCount)
    for ((name, g) <- TestGraphs.forMatching) {
      val fused = DfsEngine.runLocal(g, plan, DfsConfig(countingOnly = true))
      val listed = NaiveMatcher.countUnique(g, Patterns.diamond, induced = false)
      assert(fused.count == listed, name)
    }
  }

  test("fused counting does less set-op work than listing on dense input") {
    val g = TestGraphs.plDense
    val fusedPlan = Planner.plan(Patterns.diamond, induced = false, countingOnly = true)
    val listPlan = Planner.plan(Patterns.diamond, induced = false)
    val fused = DfsEngine.runLocal(g, fusedPlan, DfsConfig(countingOnly = true))
    val listed = DfsEngine.runLocal(g, listPlan, DfsConfig())
    assert(fused.setOpWork <= listed.setOpWork)
  }

  // ---- metrics semantics ------------------------------------------------
  test("levelNodes(last) equals the match count") {
    val g = TestGraphs.plMild
    for (p <- Seq(Patterns.triangle, Patterns.diamond, Patterns.cycle4)) {
      val m = DfsEngine.runLocal(g, Planner.plan(p, induced = false), DfsConfig(orientation = false))
      assert(m.levelNodes.last == m.count)
    }
  }

  test("levelNodes(1) equals edge tasks after symmetry reduction") {
    val g = TestGraphs.plMild
    val m = DfsEngine.runLocal(g, Planner.plan(Patterns.triangle, induced = false),
      DfsConfig(orientation = false))
    assert(m.levelNodes(1) == g.numEdges) // v1 < v0: one per undirected edge
  }

  test("orientation reduces clique work on skewed inputs (within early-exit noise)") {
    // With bounded merges the unoriented search also exits early, so at
    // tiny scale the two are close; orientation must never be much worse
    // and wins clearly once hubs appear (bench-scale graphs).
    val g = repro.graph.SynthGraphs.powerLaw(800, 8000, 0.9, seed = 33)
    val plan = Planner.plan(Patterns.clique(4), induced = false)
    val withO = DfsEngine.runLocal(g, plan, DfsConfig())
    val withoutO = DfsEngine.runLocal(g, plan, DfsConfig(orientation = false))
    assert(withO.count == withoutO.count)
    assert(withO.setOpWork <= withoutO.setOpWork * 2)
  }

  test("buffering reports saved work on diamond") {
    val g = TestGraphs.plDense
    val plan = Planner.plan(Patterns.diamond, induced = false)
    val m = DfsEngine.runLocal(g, plan, DfsConfig())
    assert(m.bufferSavedWork > 0)
    // whole-list scans reuse no buffer and merge past the bounds
    val whole = DfsEngine.runLocal(g, plan, DfsConfig(wholeListScans = true))
    assert(whole.count == m.count)
    assert(whole.bufferSavedWork == 0)
    assert(whole.setOpWork > m.setOpWork)
  }

  // ---- set bounding from below (§6.1) ------------------------------------
  for {
    (pName, p, induced) <- Seq(("4-cycle", Patterns.cycle4, false), ("3-star", Patterns.star(4), true))
    (gName, g) <- Seq("pl-mild" -> TestGraphs.plMild, "pl-dense" -> TestGraphs.plDense)
  } test(s"merges bounded from below cost less than whole-list scans: $pName induced=$induced on $gName") {
    val plan = Planner.plan(p, induced)
    assert(plan.levels.exists(_.lowers.nonEmpty))
    val bounded = DfsEngine.runLocal(g, plan, DfsConfig())
    val whole = DfsEngine.runLocal(g, plan, DfsConfig(wholeListScans = true))
    assert(bounded.count == whole.count)
    assert(bounded.setOpWork < whole.setOpWork)
  }

  // A level that reads a reused set was not merged under its own lower
  // bound, so its candidates still have to be bounded after the merge.
  for ((cfgName, cfg) <- Seq("default" -> DfsConfig(), "lgs" -> DfsConfig(lgs = true)))
    test(s"diamond == naive on every fixture when levels reuse sets: $cfgName") {
      val plan = Planner.plan(Patterns.diamond, induced = false)
      assert(plan.bufferReuse.exists(_.isDefined))
      for ((gName, g) <- TestGraphs.forMatching)
        assert(DfsEngine.runLocal(g, plan, cfg).count ==
          NaiveMatcher.countUnique(g, Patterns.diamond, induced = false), gName)
    }

  // A bounded level's merges return exactly its candidates, so nothing
  // searches the set again: the unoriented triangle's work is its merges'.
  for ((gName, g) <- Seq("pl-mild" -> TestGraphs.plMild, "pl-skew" -> TestGraphs.plSkew))
    test(s"no search follows a bounded merge: unoriented triangle work is its intersections' on $gName") {
      val plan = Planner.plan(Patterns.triangle, induced = false)
      assert(plan.rootEdgeCond.contains(false)) // edge tasks (v0, v1) with v1 < v0
      assert(plan.levels(1) == LevelSpec(Vector(0, 1), Vector.empty, Vector(1), Vector.empty))
      val out = new Array[Int](math.max(1, g.maxDegree)); val wc = new WorkCounter
      for (v0 <- 0 until g.n; v1 <- g.nbrs.slice(g.nbrStart(v0), g.nbrEnd(v0)) if v1 < v0)
        SetOps.intersect(g.nbrs, g.offsets(v0), g.deg(v0), g.nbrs, g.offsets(v1), g.deg(v1), out, wc, ub = v1)
      val m = DfsEngine.runLocal(g, plan, DfsConfig(orientation = false))
      assert(m.tasks == g.numEdges)
      assert(m.setOpWork == wc.ops)
    }

  // ---- incremental candidate sets ----------------------------------------
  for {
    (pName, p, induced, cfg) <- Seq(("unoriented 4-clique", Patterns.clique(4), false, DfsConfig(orientation = false)),
      ("induced 3-star", Patterns.star(4), true, DfsConfig()))
    (gName, g) <- Seq("pl-mild" -> TestGraphs.plMild, "pl-dense" -> TestGraphs.plDense)
  } test(s"incremental levels count the same with less work: $pName on $gName") {
    val plan = Planner.plan(p, induced)
    assert(plan.extendsParent.contains(true))
    val incremental = DfsEngine.runLocal(g, plan, cfg)
    val whole = DfsEngine.runLocal(g, plan.copy(extendsParent = plan.extendsParent.map(_ => false)), cfg)
    assert(incremental.count == whole.count)
    assert(incremental.count == NaiveMatcher.countUnique(g, p, induced))
    assert(incremental.setOpWork < whole.setOpWork)
    assert(incremental.bufferSavedWork == whole.bufferSavedWork) // opt K's reuse only
  }

  // The ranking check: the symmetry-aware cost picks a 4-cycle order that
  // does no more work than the identity order it used to tie with.
  for ((gName, g) <- Seq("pl-mild" -> TestGraphs.plMild, "pl-dense" -> TestGraphs.plDense))
    test(s"the chosen 4-cycle order does at most the work of 0123 on $gName") {
      val c4 = Patterns.cycle4; val id = Vector(0, 1, 2, 3)
      val chosen = Planner.plan(c4, induced = false)
      val identity = Planner.fromOrder(SearchOrder(c4, id, c4, Analyzer.symmetryConds(c4)),
        induced = false, countingOnly = false)
      assert(chosen.searchOrder.order != id)
      val a = DfsEngine.runLocal(g, chosen, DfsConfig())
      val b = DfsEngine.runLocal(g, identity, DfsConfig())
      assert(a.count == b.count)
      assert(a.setOpWork <= b.setOpWork)
    }

  // ---- pinned work ------------------------------------------------------
  // The kernels below (bitmap-probed merges, counting leaves, bit-row local
  // graphs) count the steps of the list merges they replace, so a run's
  // counted fields are pinned to values recorded before each kernel went
  // in. To re-record a table after an intended change of the work model:
  //   sbt "Test/runMain repro.engine.RecordWork <table>"
  // and paste its rows (see RecordWork).

  /** Metrics of the plans whose merges now probe a bitmap of a list that
    * stays fixed across the parent loop, recorded at commit dcf2add, where
    * every level still merged: the probed merges count the steps of the
    * merges they replace, so nothing may move.
    */
  private val recordedAtDcf2add: Map[(String, String), Recorded] = Map(
    ("g2miner-4-cycle", "pl-mild") -> Recorded(635L, 15110L, Seq(100L, 300L, 814L, 635L), 0L, 15410L),
    ("g2miner-4-cycle", "pl-skew") -> Recorded(538L, 7182L, Seq(60L, 150L, 374L, 538L), 0L, 7332L),
    ("baseline-diamond", "pl-mild") -> Recorded(255L, 5980L, Seq(100L, 300L, 333L, 255L), 8742L, 6280L),
    ("baseline-diamond", "pl-skew") -> Recorded(533L, 3618L, Seq(60L, 150L, 297L, 533L), 8696L, 3768L),
    ("baseline-triangle", "pl-mild") -> Recorded(111L, 1588L, Seq(100L, 300L, 111L), 0L, 1888L),
    ("baseline-triangle", "pl-skew") -> Recorded(99L, 852L, Seq(60L, 150L, 99L), 0L, 1002L),
    ("counting-diamond", "pl-mild") -> Recorded(255L, 5275L, Seq(100L, 300L, 333L, 255L), 0L, 5575L),
    ("counting-diamond", "pl-skew") -> Recorded(533L, 2753L, Seq(60L, 150L, 297L, 533L), 0L, 2903L),
    ("induced-4-cycle", "pl-mild") -> Recorded(404L, 18803L, Seq(100L, 300L, 703L, 404L), 0L, 19103L),
    ("induced-4-cycle", "pl-skew") -> Recorded(110L, 7478L, Seq(60L, 150L, 275L, 110L), 0L, 7628L),
    ("induced-4-path", "pl-mild") -> Recorded(13138L, 92555L, Seq(100L, 300L, 2166L, 13138L), 0L, 92855L),
    ("induced-4-path", "pl-skew") -> Recorded(3226L, 32512L, Seq(60L, 150L, 899L, 3226L), 0L, 32662L),
    ("induced-3-star-lgs", "pl-mild") -> Recorded(8550L, 35960L, Seq(100L, 566L, 2330L, 8550L), 0L, 36060L),
    ("induced-3-star-lgs", "pl-skew") -> Recorded(4274L, 18670L, Seq(60L, 276L, 1072L, 4274L), 0L, 18730L),
  )

  /** Rows for the plans whose last level counts its set instead of building
    * it, recorded at commit 5a4f501, where every leaf still built its set:
    * the induced wedge (its one merge, N(v0) − N(v1), probes the owner's
    * N(v0)), the induced tailed triangle under LGS (its leaf may hold a
    * matched vertex, so it still builds) and the 4-clique under LGS.
    */
  private val recordedAt5a4f501: Map[(String, String), Recorded] = Map(
    ("induced-wedge", "pl-mild") -> Recorded(2340L, 8129L, Seq(100L, 600L, 2340L), 0L, 8729L),
    ("induced-wedge", "pl-skew") -> Recorded(1077L, 3981L, Seq(60L, 300L, 1077L), 0L, 4281L),
    ("induced-tailed-triangle-lgs", "pl-mild") -> Recorded(2781L, 22080L, Seq(100L, 566L, 330L, 2781L), 0L, 22180L),
    ("induced-tailed-triangle-lgs", "pl-skew") -> Recorded(2042L, 16782L, Seq(60L, 276L, 294L, 2042L), 0L, 16842L),
    ("4-clique-lgs", "pl-mild") -> Recorded(8L, 1448L, Seq(100L, 239L, 104L, 8L), 0L, 1548L),
    ("4-clique-lgs", "pl-skew") -> Recorded(35L, 827L, Seq(60L, 110L, 90L, 35L), 0L, 887L),
  )

  /** The local and Spark runs of the entry's plan agree with each other in
    * every counted field and with `r`. Tables recorded before LGS tasks
    * searched roots of degree below k − 1 pin the other roots' tasks: under
    * LGS the run adds exactly the low roots' own tasks (run alone, each
    * doing at least its local graph build) to `r`'s work, buffer savings
    * and per-task work, and its `levelNodes` equal the edge-task run's.
    */
  private def assertRecorded(e: WorkEntry, r: Recorded): Unit = {
    val plan = Planner.plan(e.p, e.induced, e.countingOnly)
    val local = DfsEngine.runLocal(e.g, plan, e.cfg)
    val dist = DfsEngine.run(repro.SparkSpec.shared, e.g, plan, e.cfg)
    val clue = e.key.mkString(" ")
    var (work, saved, levelNodes) = (r.setOpWork, r.bufferSavedWork, r.levelNodes)
    val (graph, planX, lgs) = WorkEntries.prepared(e.g, plan, e.cfg)
    if (lgs) {
      val lowRoots = (0 until graph.n).filter(graph.deg(_) < plan.k - 1)
      val low = new PlanExecutor(graph, planX, e.cfg, lgsMode = true)
      lowRoots.foreach(low.runSlot)
      val build = new WorkCounter
      lowRoots.foreach(graph.localGraph(_, build))
      assert(low.wc.ops >= build.ops, clue)
      work += low.wc.ops; saved += low.savedWork
      levelNodes = DfsEngine.runLocal(e.g, plan, e.cfg.copy(lgs = false)).levelNodes.toSeq
    }
    assert(local.count == r.count, clue)
    assert(local.setOpWork == work, clue)
    assert(local.levelNodes.toSeq == levelNodes, clue)
    assert(local.bufferSavedWork == saved, clue)
    assert(local.tasks == r.tasks, clue)
    assert(DfsEngine.perTaskWork(e.g, plan, e.cfg).sum == r.perTaskWorkSum + (work - r.setOpWork), clue)
    assert(dist.count == local.count && dist.setOpWork == local.setOpWork && dist.tasks == local.tasks, clue)
    assert(dist.levelNodes.toSeq == local.levelNodes.toSeq && dist.bufferSavedWork == local.bufferSavedWork, clue)
  }

  for (e <- WorkEntries.dcf2add) test(s"probed merges keep the merged work recorded at dcf2add: ${e.key(0)} on ${e.key(1)}") {
    val r = recordedAtDcf2add((e.key(0), e.key(1)))
    assert(r.count == NaiveMatcher.countUnique(e.g, e.p, e.induced))
    assertRecorded(e, r)
  }

  for (e <- WorkEntries.at5a4f501) test(s"counting leaves keep the work recorded at 5a4f501: ${e.key(0)} on ${e.key(1)}") {
    val r = recordedAt5a4f501((e.key(0), e.key(1)))
    assert(r.count == NaiveMatcher.countUnique(e.g, e.p, e.induced))
    assertRecorded(e, r)
  }

  // Bit-row local graphs: every LGS plan of the 3-, 4- and 5-motifs counts
  // the list merges' work recorded at a024cb4, one test per plan and config.
  for (((name, cfgName), es) <- WorkEntries.lgsPlans.groupBy(e => (e.key(0), e.key(1))).toSeq.sortBy(_._1))
    test(s"bit-row LGS keeps the list merges' work recorded at a024cb4: $name under $cfgName") {
      for (e <- es) assertRecorded(e, RecordedAtA024cb4.lgs((e.key(0), e.key(1), e.key(2))))
    }

  // Rows of one and two words, with the hub's bound on and beside a word edge.
  for {
    (gName, g) <- TestGraphs.forWordEdges
    (pName, p, induced) <- Seq(("induced-3-star", Patterns.star(4), true),
      ("induced-tailed-triangle", Patterns.tailedTriangle, true),
      ("induced-diamond", Patterns.diamond, true), ("4-clique", Patterns.clique(4), false))
  } test(s"bit-row LGS == local == naive across word edges: $pName on $gName") {
    val plan = Planner.plan(p, induced)
    val expected = NaiveMatcher.countUnique(g, p, induced)
    for ((cfgName, cfg) <- WorkEntries.lgsConfigs) {
      assert(WorkEntries.runsLgs(p, induced, cfg, g))
      val local = DfsEngine.runLocal(g, plan, cfg)
      val dist = DfsEngine.run(repro.SparkSpec.shared, g, plan, cfg)
      assert(local.count == expected, cfgName)
      assert(dist.count == local.count && dist.setOpWork == local.setOpWork && dist.tasks == local.tasks, cfgName)
      assert(dist.levelNodes.toSeq == local.levelNodes.toSeq && dist.bufferSavedWork == local.bufferSavedWork, cfgName)
    }
  }

  test("edgelist reduction halves tasks when a root condition exists") {
    val g = TestGraphs.plMild
    val plan = Planner.plan(Patterns.cycle4, induced = false)
    assert(plan.rootEdgeCond.isDefined)
    val m = DfsEngine.runLocal(g, plan, DfsConfig(orientation = false))
    assert(m.tasks == g.numEdges) // half the arcs
    assert(m.count == NaiveMatcher.countUnique(g, Patterns.cycle4, induced = false))
  }

  private val perTaskConfigs: Seq[(String, DfsConfig)] =
    allConfigs.filter(c => Set("default", "lgs", "no-orientation", "pangolin-scan").contains(c._1))
  private val perTaskPatterns: Seq[(String, Pattern, Boolean)] = Seq(
    ("triangle", Patterns.triangle, false), ("diamond", Patterns.diamond, false),
    ("4-clique", Patterns.clique(4), false), ("4-cycle", Patterns.cycle4, false),
    ("3-star", Patterns.star(4), true))

  test("perTaskWork sums near the run total and covers all tasks") {
    val g = TestGraphs.plMild
    for {
      (cfgName, cfg) <- perTaskConfigs
      (pName, p, induced) <- perTaskPatterns
    } {
      val plan = Planner.plan(p, induced)
      val w = DfsEngine.perTaskWork(g, plan, cfg)
      val m = DfsEngine.runLocal(g, plan, cfg)
      assert(w.length == m.tasks, s"$pName $cfgName")
      assert(w.sum == m.setOpWork + m.tasks, s"$pName $cfgName") // +1 launch floor per task
      assert(w.forall(_ >= 1), s"$pName $cfgName")
    }
  }

  /** The reference for `perTaskWork`: one executor runs slots 0…m−1 of the
    * search `DfsEngine` prepares, in order, and keeps each task's work + 1.
    */
  private def sequentialTaskWork(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig): Seq[Long] = {
    val (graph, planX, lgs) = WorkEntries.prepared(g, plan, cfg)
    val ex = new PlanExecutor(graph, planX, cfg, lgs)
    (0 until (if (lgs) graph.n else graph.numArcs)).flatMap { s =>
      val (tasks, ops) = (ex.tasksRun, ex.wc.ops)
      ex.runSlot(s)
      if (ex.tasksRun > tasks) Some(ex.wc.ops - ops + 1) else None
    }
  }

  for ((gName, g) <- TestGraphs.forStripes) test(s"perTaskWork == one executor's slot-by-slot pass on $gName") {
    for {
      (cfgName, cfg) <- perTaskConfigs
      (pName, p, induced) <- perTaskPatterns
    } {
      val plan = Planner.plan(p, induced)
      val w = DfsEngine.perTaskWork(g, plan, cfg)
      assert(w.toSeq == sequentialTaskWork(g, plan, cfg), s"$pName $cfgName")
      if (g.n == 0) assert(w.isEmpty)
    }
  }

  // ---- known closed-form counts -----------------------------------------
  test("K7 clique counts match binomials") {
    for (k <- 3 to 5) {
      val m = DfsEngine.runLocal(TestGraphs.k7, Planner.plan(Patterns.clique(k), induced = false), DfsConfig())
      val expected = (1 to k).map(i => (7 - i + 1).toLong).product / (1 to k).map(_.toLong).product
      assert(m.count == expected, s"k=$k")
    }
  }

  test("cycle9 has 9 induced wedges and no triangles") {
    val w = DfsEngine.runLocal(TestGraphs.cyc9, Planner.plan(Patterns.wedge, induced = true), DfsConfig())
    val t = DfsEngine.runLocal(TestGraphs.cyc9, Planner.plan(Patterns.triangle, induced = false), DfsConfig())
    assert(w.count == 9 && t.count == 0)
  }

  test("star8 has C(8,2) wedges and C(8,3) claws") {
    val w = DfsEngine.runLocal(TestGraphs.star8, Planner.plan(Patterns.wedge, induced = true), DfsConfig())
    val c = DfsEngine.runLocal(TestGraphs.star8, Planner.plan(Patterns.star(4), induced = true), DfsConfig())
    assert(w.count == 28 && c.count == 56)
  }

  test("grid 3x4 4-cycle count is the number of unit squares") {
    val m = DfsEngine.runLocal(TestGraphs.grid34, Planner.plan(Patterns.cycle4, induced = false), DfsConfig())
    assert(m.count == 6)
  }

  test("8-clique listing runs on K10 (large-pattern support, Fig. 11)") {
    val k10 = TestGraphs.completeGraph(10)
    val m = DfsEngine.runLocal(k10, Planner.plan(Patterns.clique(8), induced = false), DfsConfig())
    assert(m.count == 45) // C(10,8)
  }

  test("TPC-H bipartite graph has no triangles (SynthData substrate)") {
    val spark = repro.SparkSpec.shared
    val g = TestGraphs.tpchBipartite(spark, sf = 0.001)
    val m = DfsEngine.runLocal(g, Planner.plan(Patterns.triangle, induced = false), DfsConfig())
    assert(m.count == 0)
    val c4 = DfsEngine.runLocal(g, Planner.plan(Patterns.cycle4, induced = false), DfsConfig())
    assert(c4.count == NaiveMatcher.countUnique(g, Patterns.cycle4, induced = false))
  }
}
