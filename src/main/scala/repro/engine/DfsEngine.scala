package repro.engine

import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.sql.SparkSession
import repro.graph.CSRGraph
import repro.plan.{Planner, SearchPlan}
import repro.sched.Scheduler
import repro.setops.{ListBitmap, SetOps, WorkCounter}

/** Configuration knobs mirroring the paper's optimization letters (Table 2).
  * Tasks are always edge-parallel (§5.1 (2)) with edgelist reduction
  * (opt J); only LGS switches to vertex tasks. Buffer reuse (opt K),
  * incremental sets and merges bounded by the symmetry order (set
  * bounding inside the merge, §6.1: start above the lower bound, exit
  * early at the upper one) are on unless `wholeListScans` is set. Either
  * way each level's bounds are applied once: by its merges, or by one cut
  * of the finished set.
  *
  * @param orientation    DAG orientation for cliques (opt A)
  * @param countingOnly   counting-only run (opt D). The engine does not
  *                       read it: fusing the two innermost loops into
  *                       C(n,2) follows `SearchPlan.fusedCount`, which
  *                       `Planner.plan(countingOnly = true)` sets
  * @param lgs            local graph search for hub patterns (opt E), on
  *                       inputs whose maximum degree is at most
  *                       [[DfsEngine.LgsMaxDegree]]
  * @param wholeListScans Pangolin's extend-then-filter scan volume: no
  *                       buffer reuse (opt K), no incremental sets
  *                       (`SearchPlan.extendsParent`) and no set bounding
  *                       in the merges (§6.1), so every level merges whole
  *                       lists and cuts the result to its bounds afterwards
  */
final case class DfsConfig(
    orientation: Boolean = true,
    countingOnly: Boolean = false,
    lgs: Boolean = false,
    wholeListScans: Boolean = false,
)

/** Aggregated run metrics. `levelNodes(i)` is the number of valid partial
  * embeddings of search positions 0..i — exactly the subgraph-list sizes a
  * BFS engine would materialize level by level, which the cost model uses
  * to derive Pangolin/PBE memory footprints. `setOpWork` is the step count
  * of the plan's bounded linear merges (the modeled §6 kernel), whatever
  * kernel built or counted the set: a merge that probes a bitmap, or that
  * only counts its result, counts the steps the merge would take.
  * `bufferSavedWork` is the
  * merge work that opt K's exact-set reuse skipped; the work an
  * incremental level saves by starting from its parent's set is not in it
  * (it shows only as a smaller `setOpWork`).
  */
final case class Metrics(
    count: Long,
    setOpWork: Long,
    levelNodes: Array[Long],
    tasks: Long,
    bufferSavedWork: Long,
) {
  def combine(o: Metrics): Metrics = Metrics(
    count + o.count,
    setOpWork + o.setOpWork,
    levelNodes.zip(o.levelNodes).map { case (a, b) => a + b },
    tasks + o.tasks,
    bufferSavedWork + o.bufferSavedWork,
  )
}

/** A [[repro.plan.LevelSpec]] as [[PlanExecutor]] runs it: `conn` leaves
  * out the LGS root, whose neighbours are all local vertices; `unmatched`
  * holds the earlier positions a candidate may equal (neither in the
  * plan's `conn` nor the LGS root); `reuse` is the position whose set
  * equals this one (opt K) or −1; `extend` means the set starts from the
  * previous position's candidates, and `conn` and `anti` then hold only
  * the lists that set lacks; `bounded` means the merges apply the
  * level's symmetry bounds (§6.1), so the set they return is exactly its
  * candidates. It holds when the level computes its own set, lends it to
  * no later level (which may need more) and merges at least once; every
  * other level is cut to its bounds after the set is built. `probe` is the
  * position whose list the first intersection, N(conn(0)) ∩ N(conn(1)),
  * probes as a bitmap (−1: it merges), and `antiProbe(x)` says whether
  * the difference with N(anti(x)) probes one. `stableBase` marks a last
  * level whose one merge is N(conn(0)) − N(anti(0)) with only the first
  * list stable: when it counts, it probes that list's bitmap.
  */
private final class Level(val conn: Array[Int], val anti: Array[Int], val uppers: Array[Int],
                          val lowers: Array[Int], val unmatched: Array[Int], val reuse: Int,
                          val extend: Boolean, val bounded: Boolean,
                          val probe: Int, val antiProbe: Array[Boolean], val stableBase: Boolean)

/** Single-threaded plan interpreter, one instance per Spark partition (or
  * `perTaskWork` thread), which runs its stripe of the canonical task
  * order. This is
  * the analog of a generated CUDA kernel: the nested DFS loops, set
  * primitives, symmetry bounds and buffer reuse of §5/§6, which the
  * constructor fixes once per level as the code generator does per kernel.
  *
  * A list that stays fixed across a level's parent loop is probed as a
  * bitmap instead of merged (§6 buffers what an inner loop does not
  * change): at level i ≥ 3 the list of every position p ≤ i − 2, and for
  * edge tasks the list of the arc's owner, whose arcs [[runSlot]] runs
  * back to back. Under LGS the same rule holds over local ids. A level's
  * first intersection probes when one of its two lists is stable, and a
  * difference probes when the list it subtracts is; extending levels,
  * levels that reuse a set and merges with no stable list merge. Either
  * way the counted work is the bounded linear merge's step count.
  *
  * The last level only adds |W|, so a bounded last level runs every merge
  * but its last as above and only counts the last one, building no set,
  * unless a matched vertex that its injectivity check reads lies inside
  * its bounds (the induced path and tailed triangle), which the set must
  * then be searched for. When that level's one merge is N(conn(0)) −
  * N(anti(0)) and only N(conn(0)) is stable (the induced wedge, whose
  * conn(0) is the edge task's owner), the count scans N(anti(0)) and
  * probes N(conn(0))'s bitmap.
  *
  * Memory per instance, beyond the shared graph, is `(k + 1) × max(1,
  * maxDegree)` ints: one candidate buffer per pattern position plus the
  * identity view LGS tasks scan, and up to k bitmaps of `max(n,
  * maxDegree)` bits, one per position whose list some level probes, plus,
  * under LGS, position 0's, which holds the root's list while its local
  * graph is built. An LGS task also holds its root's local graph until the
  * next task starts (a bitmap keeps the last list it marked); nothing grows
  * with the task count.
  *
  * @param lgsMode every task is a local graph search (opt E): a vertex task
  *                that searches the root's induced neighborhood. Otherwise
  *                every task is an edge.
  */
final class PlanExecutor(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig, lgsMode: Boolean) {
  private val k = plan.k
  val wc = new WorkCounter
  var count = 0L
  val lvl = new Array[Long](k)
  var tasksRun = 0L
  var savedWork = 0L

  // A bound on position j compares with matched(j). Under LGS the root is
  // not a local vertex: its upper key, the number of local vertices below
  // it, sits in matched(0), and its lower key, one less, in matched(k).
  private val matched = new Array[Int](k + 1)

  private val levels: Array[Level] = {
    val root = if (lgsMode) 0 else -1
    // An edge task matches position 1 without computing its set, so no
    // level can reuse it.
    val reuse = (None +: plan.bufferReuse).map {
      case Some(j) if !cfg.wholeListScans && (lgsMode || j >= 2) => j
      case _ => -1
    }
    // The position of an edge task's owner: v0, unless the root condition
    // puts the owner, the arc's lower end, at v1.
    val owner = if (lgsMode) -1 else if (plan.rootEdgeCond.contains(false)) 1 else 0
    null +: Array.tabulate(k - 1) { li =>
      val i = li + 1; val spec = plan.levels(li)
      val extend = !cfg.wholeListScans && plan.extendsParent(li)
      // the lists already merged into the parent's set, if this level extends it
      val merged = if (extend) plan.levels(li - 1).conn ++ plan.levels(li - 1).anti else Vector()
      val conn = spec.conn.filter(j => j != root && !merged.contains(j)).toArray
      val anti = spec.anti.filterNot(merged.contains).toArray
      // every input after the first (the LGS identity view when conn is
      // empty) is one merge; an extended set's first input is its parent's
      val merges = (if (extend) conn.length else math.max(conn.length, 1) - 1) + anti.length
      // lists fixed across the parent loop; the lower of two stable
      // positions is re-marked less often
      def stable(p: Int) = !extend && ((i >= 3 && p <= i - 2) || p == owner)
      val antiProbe = anti.map(stable)
      new Level(conn, anti, spec.uppers.toArray,
        spec.lowers.map(j => if (j == root) k else j).toArray,
        (0 until i).filter(j => j != root && !spec.conn.contains(j)).toArray,
        reuse(i), extend, bounded = !cfg.wholeListScans && reuse(i) < 0 && !reuse.contains(i) && merges > 0,
        probe = if (conn.length >= 2) conn.take(2).filter(stable).minOption.getOrElse(-1) else -1,
        antiProbe,
        stableBase = i == k - 1 && conn.length == 1 && anti.length == 1 && stable(conn(0)) && !antiProbe(0))
    }
  }
  private val fuseAt = if (plan.fusedCount) k - 2 else -1

  private val cap = math.max(1, g.maxDegree)
  private val buf = Array.ofDim[Int](k, cap)
  // Candidate-set views per position: (array, offset, length).
  private val candArr = new Array[Array[Int]](k)
  private val candOff = new Array[Int](k)
  private val candLen = new Array[Int](k)
  private val identity = Array.range(0, cap) // "all local vertices" view for LGS
  // bitmap of position p's list, for the positions some level probes; under
  // LGS position 0's holds the root's global list, which its local graph probes
  private val bits: Array[ListBitmap] = Array.tabulate(k) { p =>
    if ((lgsMode && p == 0) || levels.exists(lv => lv != null && (lv.probe == p ||
        lv.anti.zip(lv.antiProbe).contains((p, true)) || (lv.stableBase && lv.conn(0) == p))))
      new ListBitmap(math.max(g.n, cap))
    else null
  }
  private var lg: CSRGraph = g                // graph used for set ops (local in LGS)

  @inline private def nbrA: Array[Int] = lg.nbrs
  @inline private def nOff(v: Int): Int = lg.offsets(v)
  @inline private def nLen(v: Int): Int = lg.offsets(v + 1) - lg.offsets(v)

  @inline private def minKey(js: Array[Int]): Int = {
    var m = Int.MaxValue; var x = 0
    while (x < js.length) { m = math.min(m, matched(js(x))); x += 1 }
    m
  }
  @inline private def maxKey(js: Array[Int]): Int = {
    var m = Int.MinValue; var x = 0
    while (x < js.length) { m = math.max(m, matched(js(x))); x += 1 }
    m
  }
  /** Position p's list, marked in its bitmap (free if already marked). */
  @inline private def marked(p: Int): ListBitmap = {
    val v = matched(p); val bm = bits(p)
    bm.mark(nbrA, nOff(v), nLen(v))
    bm
  }
  @inline private def lenSum(js: Array[Int]): Long = {
    var s = 0L; var x = 0
    while (x < js.length) { s += nLen(matched(js(x))); x += 1 }
    s
  }

  /** Compute (or reuse) the candidate set for position i and return its
    * size. An extending level starts from position i − 1's candidates and
    * merges only its extra lists. The merges of a bounded level take its
    * symmetry bounds (§6.1): each skips its inputs' prefix up to the lower
    * bound and exits early at the upper one. An empty bound list gives a
    * key that bounds nothing. A merge with a stable list (`probe`,
    * `antiProbe`, `stableBase`) probes that list's bitmap, marked on first
    * use, and counts the same steps. With `countLast` (a bounded level) the
    * last merge only counts its set, which is then not built.
    */
  private def computeCands(i: Int, countLast: Boolean): Int = {
    val lv = levels(i)
    if (lv.reuse >= 0) {
      val j = lv.reuse; candArr(i) = candArr(j); candOff(i) = candOff(j); candLen(i) = candLen(j)
      // work the recomputation would have cost: the merge over inputs
      savedWork += lenSum(lv.conn) + lenSum(lv.anti)
      return candLen(i)
    }
    val ub = if (lv.bounded) minKey(lv.uppers) else Int.MaxValue
    val lb = if (lv.bounded) maxKey(lv.lowers) else Int.MinValue
    val conn = lv.conn; var arr: Array[Int] = null; var off = 0; var len = 0; var ci = 1
    if (lv.extend) {
      arr = candArr(i - 1); off = candOff(i - 1); len = candLen(i - 1); ci = 0
    } else if (conn.length == 0) { // LGS: every local vertex is a neighbor of the root
      arr = identity; off = 0; len = lg.n
    } else {
      val c0 = matched(conn(0))
      arr = nbrA; off = nOff(c0); len = nLen(c0)
    }
    val anti = lv.anti
    while (ci < conn.length) {
      val c = matched(conn(ci)); val probed = ci == 1 && lv.probe >= 0
      if (countLast && ci == conn.length - 1 && anti.length == 0)
        return if (probed) SetOps.intersectProbedCount(arr, off, len, nbrA, nOff(c), nLen(c), marked(lv.probe), wc, ub, lb)
          else SetOps.intersectCount(arr, off, len, nbrA, nOff(c), nLen(c), wc, ub, lb)
      len =
        if (probed) SetOps.intersectProbed(arr, off, len, nbrA, nOff(c), nLen(c), marked(lv.probe), buf(i), wc, ub, lb)
        else SetOps.intersect(arr, off, len, nbrA, nOff(c), nLen(c), buf(i), wc, ub, lb)
      arr = buf(i); off = 0
      ci += 1
    }
    var ai = 0
    while (ai < anti.length) {
      val a = matched(anti(ai))
      if (countLast && ai == anti.length - 1)
        return if (lv.antiProbe(ai))
            SetOps.differenceProbedCount(arr, off, len, nbrA, nOff(a), nLen(a), marked(anti(ai)), wc, ub, lb)
          else if (lv.stableBase)
            SetOps.differenceStableCount(arr, off, len, nbrA, nOff(a), nLen(a), marked(conn(0)), wc, ub, lb)
          else SetOps.differenceCount(arr, off, len, nbrA, nOff(a), nLen(a), wc, ub, lb)
      len =
        if (lv.antiProbe(ai))
          SetOps.differenceProbed(arr, off, len, nbrA, nOff(a), nLen(a), marked(anti(ai)), buf(i), wc, ub, lb)
        else SetOps.difference(arr, off, len, nbrA, nOff(a), nLen(a), buf(i), wc, ub, lb)
      arr = buf(i); off = 0
      ai += 1
    }
    candArr(i) = arr; candOff(i) = off; candLen(i) = len
    len
  }

  /** Whether a matched vertex that level `lv`'s injectivity check reads
    * lies inside the level's bounds, where its set may hold it.
    */
  private def matchedInBounds(lv: Level): Boolean = {
    val ub = minKey(lv.uppers); val lb = maxKey(lv.lowers); val js = lv.unmatched
    var x = 0
    while (x < js.length && { val v = matched(js(x)); v <= lb || v >= ub }) x += 1
    x < js.length
  }

  /** Count matched vertices that appear inside [lo, hi) of candArr(i) —
    * injectivity correction for counting without iteration.
    */
  private def matchedInRange(i: Int, lo: Int, hi: Int): Int = {
    if (lo >= hi) return 0
    val arr = candArr(i)
    val js = levels(i).unmatched
    var cnt = 0; var x = 0
    while (x < js.length) {
      val v = matched(js(x))
      if (v >= arr(lo) && v <= arr(hi - 1) &&
          SetOps.contains(arr, lo, hi - lo, v, wc)) cnt += 1
      x += 1
    }
    cnt
  }

  @inline private def isMatched(v: Int, js: Array[Int]): Boolean = {
    var x = 0
    while (x < js.length && matched(js(x)) != v) x += 1
    x < js.length
  }

  private def descend(i: Int): Unit = {
    if (i == fuseAt) { fusedLeaf(i); return }
    val lv = levels(i)
    // A bounded leaf that holds no matched vertex is only counted; one that
    // may hold one is built, so that matchedInRange can search it.
    if (i == k - 1 && lv.bounded && !matchedInBounds(lv)) {
      val c = computeCands(i, countLast = true)
      count += c
      lvl(i) += c
      return
    }
    computeCands(i, countLast = false)
    val arr = candArr(i)
    var lo = candOff(i); var hi = lo + candLen(i)
    // The one cut of a set its merges did not bound: the lower bound, then
    // the upper bound above it. No lower bound is Int.MinValue: a free no-op.
    if (!lv.bounded) {
      lo += SetOps.countAtMost(arr, lo, hi - lo, maxKey(lv.lowers), wc)
      if (lv.uppers.length > 0) hi = lo + SetOps.countBelow(arr, lo, hi - lo, minKey(lv.uppers), wc)
    }
    if (i == k - 1) {
      val c = (hi - lo) - matchedInRange(i, lo, hi)
      count += c
      lvl(i) += c
    } else {
      val unmatched = lv.unmatched
      var idx = lo
      while (idx < hi) {
        val v = arr(idx)
        if (!isMatched(v, unmatched)) {
          matched(i) = v
          lvl(i) += 1
          descend(i + 1)
        }
        idx += 1
      }
      wc.add((hi - lo).toLong)
    }
  }

  /** Counting-only fusion (Algorithm 3): positions k-2 and k-1 draw from
    * the same buffer with a single mutual bond — count C(n, 2) pairs.
    */
  private def fusedLeaf(i: Int): Unit = {
    computeCands(i, countLast = false)
    val n = (candLen(i) - matchedInRange(i, candOff(i), candOff(i) + candLen(i))).toLong
    count += n * (n - 1) / 2
    lvl(i) += n
    lvl(i + 1) += n * (n - 1) / 2
  }

  private val rootCond = plan.rootEdgeCond
  private var owner = 0 // source vertex of the last arc slot run

  /** Run slot `s` of the canonical task order, the engine's single
    * dispatch site: vertex `s` in LGS mode, else arc `s = (u, v)` of `g`.
    * Without a root condition every arc is a task; under one, only arcs
    * with `u < v`, oriented to satisfy it up front (opt J). Slots run
    * cheapest in increasing order: the arc's owner is walked forward.
    */
  def runSlot(s: Int): Unit =
    if (lgsMode) runLgsTask(s)
    else {
      if (s < g.offsets(owner)) owner = 0
      while (g.offsets(owner + 1) <= s) owner += 1
      val u = owner; val v = g.nbrs(s)
      rootCond match {
        case None => runEdgeTask(u, v)
        case Some(lowFirst) => if (u < v) { if (lowFirst) runEdgeTask(u, v) else runEdgeTask(v, u) }
      }
    }

  /** Edge task: the subtree rooted at edge (v0, v1). Tasks are reduced
    * (opt J), so (v0, v1) already satisfies level 1's symmetry bounds.
    */
  private def runEdgeTask(v0: Int, v1: Int): Unit = {
    tasksRun += 1
    matched(0) = v0
    matched(1) = v1
    lvl(1) += 1
    if (k == 2) count += 1 else descend(2)
  }

  /** LGS task (hub patterns): search v0's local induced graph (Fig. 7). */
  private def runLgsTask(v0: Int): Unit = {
    tasksRun += 1
    if (g.deg(v0) < k - 1) return
    val (local, verts) = g.localGraph(v0, wc, bits(0))
    lg = local
    // #local vertices with global id < v0 (order-preserving rename)
    var lo = 0; var hi = verts.length
    while (lo < hi) { val m = (lo + hi) >>> 1; if (verts(m) < v0) lo = m + 1 else hi = m }
    matched(0) = lo
    matched(k) = lo - 1
    descend(1)
  }

  /** Metrics of the tasks run so far; level 0 is left to the caller. */
  def metrics: Metrics = Metrics(count, wc.ops, lvl.clone(), tasksRun, savedWork)
}

/** The G²Miner execution engine on Spark: each partition derives its
  * round-robin stripe of the canonical task order ([[PlanExecutor.runSlot]])
  * and interprets the pattern's search plan over a broadcast CSR graph.
  * Counts are exact; metrics feed the simulated-device cost model and the
  * multi-GPU scheduler.
  */
object DfsEngine {

  /** The effective search after the input- and pattern-aware
    * optimizations, with its slot count.
    */
  private final case class Prepared(graph: CSRGraph, plan: SearchPlan, lgs: Boolean, slots: Int)

  /** Input-aware LGS threshold (opt E): on an input whose maximum degree
    * exceeds it, LGS is skipped and the search stays global. An LGS task
    * builds its root's induced neighbourhood, up to Δ(Δ − 1) local arcs
    * held twice while it is built: about 128 MiB per executor thread at
    * Δ = 4096. The Tw2, Tw4 and Uk analogs exceed it (Δ ≈ 5.9 K–13.8 K);
    * no oriented analog does.
    */
  val LgsMaxDegree = 4096

  /** Orientation rewrites clique plans onto the DAG (opt A); LGS switches
    * hub patterns to vertex-rooted local search (opt E), one slot per
    * vertex. Otherwise there is one slot per arc, and the tasks are edges:
    * under a (v0, v1) symmetry condition one per undirected edge (opt J);
    * without one, every arc. The oriented clique plan has no conditions, so
    * it takes every DAG arc.
    */
  private def prepare(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig): Prepared = {
    val orient = cfg.orientation && plan.pattern.isClique && !plan.induced
    val graph = if (orient) g.oriented else g
    val planX = if (orient) Planner.orientedCliquePlan(plan.k) else plan
    val useLgs = cfg.lgs && planX.hubRooted && graph.maxDegree <= LgsMaxDegree && planX.k >= 3
    Prepared(graph, planX, useLgs, if (useLgs) graph.n else graph.numArcs)
  }

  /** Level 0 of the search tree is every vertex of the input graph. */
  private def withRoots(m: Metrics, g: CSRGraph): Metrics = {
    val l = m.levelNodes.clone(); l(0) = g.n.toLong
    m.copy(levelNodes = l)
  }

  /** Run the plan on Spark: partition p of P = `defaultParallelism` runs
    * slots p, p + P, … of the canonical task order (chunked round-robin
    * with chunk 1, §7.1), deriving each task from the broadcast graph. The
    * driver holds no task list.
    */
  def run(spark: SparkSession, g: CSRGraph, plan: SearchPlan, cfg: DfsConfig = DfsConfig()): Metrics = {
    // unpacked so that the task closure captures the plan, not the graph
    val Prepared(graph, planX, useLgs, slots) = prepare(g, plan, cfg)
    val m = Scheduler.roundRobinStripes(spark.sparkContext, graph, slots) { (gg, stripe) =>
      val ex = new PlanExecutor(gg, planX, cfg, useLgs)
      stripe.foreach(ex.runSlot)
      ex.metrics
    }(_ combine _)
    withRoots(m, g)
  }

  /** Per-task set-op work in canonical task order (slots 0…m−1, no-op
    * slots skipped) — the scheduler's input (§7.1). The driver runs the
    * Spark run's stripes on its own cores: for P = min(m, available
    * processors), stripe p (slots p, p + P, …) runs on its own thread with
    * its own [[PlanExecutor]]. A slot's work does not depend on the
    * executor that runs it, so the result equals a single-threaded pass.
    * Memory is that of P executors (see [[PlanExecutor]]) plus one `Long`
    * per slot. A stripe that throws stops the others, and the call rethrows
    * its failure.
    */
  def perTaskWork(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig = DfsConfig()): Array[Long] = {
    val p = prepare(g, plan, cfg)
    val parts = math.min(p.slots, Runtime.getRuntime.availableProcessors)
    val work = new Array[Long](p.slots) // 0 marks a no-op slot; a task costs at least 1
    val failure = new AtomicReference[Throwable]
    val threads = (0 until parts).map { i =>
      new Thread(() =>
        try {
          val ex = new PlanExecutor(p.graph, p.plan, cfg, p.lgs)
          Scheduler.stripe(i, parts, p.slots).foreach { s =>
            if (failure.get == null) {
              val tasks = ex.tasksRun; val ops = ex.wc.ops
              ex.runSlot(s)
              if (ex.tasksRun > tasks) work(s) = (ex.wc.ops - ops) + 1 // +1: task launch floor
            }
          }
        } catch { case e: Throwable => failure.compareAndSet(null, e) },
        s"perTaskWork-$i")
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    if (failure.get != null) throw failure.get
    work.filter(_ > 0)
  }

  /** Local (non-Spark) run, deliberately single-threaded: it is the tests'
    * local oracle for the Spark run, and `perfbench`'s `engine.local_s`
    * probe times one executor's speed with it.
    */
  def runLocal(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig = DfsConfig()): Metrics = {
    val p = prepare(g, plan, cfg)
    val ex = new PlanExecutor(p.graph, p.plan, cfg, p.lgs)
    (0 until p.slots).foreach(ex.runSlot)
    withRoots(ex.metrics, g)
  }
}
