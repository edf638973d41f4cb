package repro.engine

import repro.TestGraphs
import repro.graph.CSRGraph
import repro.pattern.{Pattern, PatternNames, Patterns}
import repro.plan.{Planner, SearchPlan}

/** The counted fields of one run that `DfsEngineSpec` pins: `tasks` is
  * `perTaskWorkSum − setOpWork`, since each task adds its launch floor of
  * one step to its work.
  */
final case class Recorded(count: Long, setOpWork: Long, levelNodes: Seq[Long],
                          bufferSavedWork: Long, perTaskWorkSum: Long) {
  def tasks: Long = perTaskWorkSum - setOpWork

  /** This row in `DfsEngineSpec`'s source form, keyed by `key`. */
  def row(key: Seq[String]): String =
    key.map(s => "\"" + s + "\"").mkString("(", ", ", ")") +
      s" -> Recorded(${count}L, ${setOpWork}L, Seq(${levelNodes.map(_ + "L").mkString(", ")}), " +
      s"${bufferSavedWork}L, ${perTaskWorkSum}L),"
}

object Recorded {
  /** The single-threaded run's fields and the per-task work sum. */
  def of(g: CSRGraph, p: Pattern, induced: Boolean, countingOnly: Boolean, cfg: DfsConfig): Recorded = {
    val plan = Planner.plan(p, induced, countingOnly)
    val m = DfsEngine.runLocal(g, plan, cfg)
    Recorded(m.count, m.setOpWork, m.levelNodes.toSeq, m.bufferSavedWork, DfsEngine.perTaskWork(g, plan, cfg).sum)
  }
}

/** A run a pinned-work table records: `key` names its row. */
final case class WorkEntry(key: Seq[String], p: Pattern, induced: Boolean, countingOnly: Boolean,
                           cfg: DfsConfig, g: CSRGraph) {
  def record: Recorded = Recorded.of(g, p, induced, countingOnly, cfg)
}

/** The entries of `DfsEngineSpec`'s pinned-work tables. */
object WorkEntries {
  private val mildSkew = Seq("pl-mild" -> TestGraphs.plMild, "pl-skew" -> TestGraphs.plSkew)

  /** Plans whose merges probe a bitmap, recorded at dcf2add. */
  val dcf2add: Seq[WorkEntry] = for {
    (name, p, induced, countingOnly, cfg) <- Seq(
      ("g2miner-4-cycle", Patterns.cycle4, false, false, DfsConfig(lgs = true)),
      ("baseline-diamond", Patterns.diamond, false, false, DfsConfig(orientation = false)),
      ("baseline-triangle", Patterns.triangle, false, false, DfsConfig(orientation = false)),
      ("counting-diamond", Patterns.diamond, false, true, DfsConfig(countingOnly = true)),
      ("induced-4-cycle", Patterns.cycle4, true, false, DfsConfig(lgs = true)),
      ("induced-4-path", Patterns.path(4), true, false, DfsConfig(lgs = true)),
      ("induced-3-star-lgs", Patterns.star(4), true, false, DfsConfig(lgs = true)))
    (gName, g) <- mildSkew
  } yield WorkEntry(Seq(name, gName), p, induced, countingOnly, cfg, g)

  /** Plans whose last level counts its set, recorded at 5a4f501. */
  val at5a4f501: Seq[WorkEntry] = for {
    (name, p, induced, cfg) <- Seq(
      ("induced-wedge", Patterns.wedge, true, DfsConfig()),
      ("induced-tailed-triangle-lgs", Patterns.tailedTriangle, true, DfsConfig(lgs = true)),
      ("4-clique-lgs", Patterns.clique(4), false, DfsConfig(lgs = true)))
    (gName, g) <- mildSkew
  } yield WorkEntry(Seq(name, gName), p, induced, countingOnly = false, cfg, g)

  val lgsConfigs: Seq[(String, DfsConfig)] =
    Seq("lgs" -> DfsConfig(lgs = true), "lgs-no-orient" -> DfsConfig(lgs = true, orientation = false))

  /** Motif `p`'s name in a row key: its common name, or its index among
    * [[Patterns.motifs]] of its size.
    */
  def motifName(p: Pattern): String = {
    val n = PatternNames.nameOf(p)
    if (n != p.canonicalCode) n else s"${p.n}-motif-${Patterns.motifs(p.n).indexWhere(_.canonicalCode == n)}"
  }

  /** The search `DfsEngine` prepares for `plan` under `cfg`: its graph and
    * plan (oriented for a clique under orientation) and whether its tasks
    * are LGS tasks.
    */
  def prepared(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig): (CSRGraph, SearchPlan, Boolean) = {
    val orient = cfg.orientation && plan.pattern.isClique && !plan.induced
    val graph = if (orient) g.oriented else g
    val planX = if (orient) Planner.orientedCliquePlan(plan.k) else plan
    (graph, planX, cfg.lgs && planX.hubRooted && graph.maxDegree <= DfsEngine.LgsMaxDegree && planX.k >= 3)
  }

  /** Whether `cfg` runs `p`'s plan as LGS tasks on `g`. */
  def runsLgs(p: Pattern, induced: Boolean, cfg: DfsConfig, g: CSRGraph): Boolean =
    prepared(g, Planner.plan(p, induced), cfg)._3

  /** Every plan of the 3-, 4- and 5-vertex motifs (induced and not) that
    * runs as LGS tasks under either LGS config, on every matching fixture.
    */
  val lgsPlans: Seq[WorkEntry] = for {
    p <- Patterns.motifs(3) ++ Patterns.motifs(4) ++ Patterns.motifs(5)
    induced <- Seq(false, true)
    (cName, cfg) <- lgsConfigs
    (gName, g) <- TestGraphs.forMatching
    if runsLgs(p, induced, cfg, g)
  } yield WorkEntry(Seq(motifName(p) + (if (induced) "-induced" else ""), cName, gName), p, induced,
    countingOnly = false, cfg, g)

  val tables: Map[String, Seq[WorkEntry]] =
    Map("dcf2add" -> dcf2add, "5a4f501" -> at5a4f501, "lgs" -> lgsPlans)
}

/** Prints the rows of the named pinned-work tables (default: every table)
  * as they are written in `DfsEngineSpec`, from single-threaded runs of
  * the current code:
  *
  * {{{
  *   sbt "Test/runMain repro.engine.RecordWork lgs"
  * }}}
  */
object RecordWork {
  def main(args: Array[String]): Unit = {
    val names = if (args.isEmpty) WorkEntries.tables.keys.toSeq.sorted else args.toSeq
    for (name <- names) {
      println(s"// $name")
      WorkEntries.tables(name).foreach(e => println(e.record.row(e.key)))
    }
  }
}
