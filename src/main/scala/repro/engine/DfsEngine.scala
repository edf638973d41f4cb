package repro.engine

import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.sql.SparkSession
import repro.graph.CSRGraph
import repro.plan.{Planner, SearchPlan}
import repro.sched.Scheduler
import repro.setops.{BitSetOps, ListBitmap, SetOps, WorkCounter}

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
  *                       [[DfsEngine.LgsMaxDegree]]; each task holds its
  *                       root's local graph as bit rows (opt F)
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
  * other level is cut to its bounds after the set is built. The last three
  * fields serve edge tasks only: `probe` is the position whose list the
  * first intersection, N(conn(0)) ∩ N(conn(1)), probes as a bitmap (−1: it
  * merges), and `antiProbe(x)` says whether the difference with
  * N(anti(x)) probes one. `stableBase` marks a last level whose one merge
  * is N(conn(0)) − N(anti(0)) with only the first list stable: when it
  * counts, it probes that list's bitmap.
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
  * Edge tasks merge sorted neighbour lists. A list that stays fixed
  * across a level's parent loop is probed as a bitmap instead of merged
  * (§6 buffers what an inner loop does not change): at level i ≥ 3 the
  * list of every position p ≤ i − 2, and the list of the arc's owner,
  * whose arcs [[runSlot]] runs back to back. A level's first intersection
  * probes when one of its two lists is stable, and a difference probes
  * when the list it subtracts is; extending levels, levels that reuse a
  * set and merges with no stable list merge. Either way the counted work
  * is the bounded linear merge's step count.
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
  * A counting last level bounded below by the owner alone, whose lists
  * are all the owner's or those of the owner's neighbours, counts over
  * owner rows instead (opt F's format in edge tasks; the non-induced and
  * induced 4-cycle): the executor holds the lists of the owner's
  * neighbours as bit rows over the vertex ids above the owner, built on
  * first use and kept for all of the owner's arcs in the stripe, and counts
  * each merge by one pass over the words above the owner, adding the list
  * merges' steps in closed form. Only where the rows fit
  * ([[DfsEngine.ownerRowsFit]]); every other level, and every level on
  * other inputs, merges lists.
  *
  * LGS tasks hold the root's local graph as bit rows (opt F): one row of
  * ⌈d/64⌉ words per local vertex, filled from the intersections that
  * [[CSRGraph.localList]] probes and counts. Every level's set is
  * computed in words ([[BitSetOps]]: AND for `conn`, AND-NOT for `anti`,
  * masks for the bounds), a loop visits its elements by trailing-zero
  * scans, and a leaf takes its size from a popcount. Each step adds, in
  * closed form, the work the list executor counts for the same step: the
  * same merges, cuts, leaf searches and per-loop steps, so every counted
  * field equals that of merging sorted local lists.
  *
  * Memory per instance, beyond the shared graph: edge tasks hold `k ×
  * max(1, maxDegree)` ints of candidate buffers and up to k bitmaps of
  * `max(n, maxDegree)` bits, one per position whose list some level
  * probes. LGS tasks hold one row buffer of Δ·⌈Δ/64⌉ longs for Δ =
  * maxDegree (2 MiB at [[DfsEngine.LgsMaxDegree]]), k + 1 sets of ⌈Δ/64⌉
  * longs, Δ ints of row lengths and Δ of list buffer, and an n-bit bitmap
  * of the root's list. A task's rows stay until the next task overwrites
  * them; nothing grows with the task count. An edge-task executor whose
  * last level counts over owner rows adds (Δ + 1)·⌈n/64⌉ longs of rows
  * (at most 2 MiB, the LGS budget), 4(Δ + 1) ints of row stamps, lengths,
  * trim steps and last elements, n ints mapping the owner's neighbours to
  * their rows and, for a leaf of more than one merge, ⌈n/64⌉ longs of set.
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

  // The position of an edge task's owner: v0, unless the root condition
  // puts the owner, the arc's lower end, at v1.
  private val ownerPos = if (lgsMode) -1 else if (plan.rootEdgeCond.contains(false)) 1 else 0

  private val levels: Array[Level] = {
    val root = if (lgsMode) 0 else -1
    // An edge task matches position 1 without computing its set, so no
    // level can reuse it.
    val reuse = (None +: plan.bufferReuse).map {
      case Some(j) if !cfg.wholeListScans && (lgsMode || j >= 2) => j
      case _ => -1
    }
    null +: Array.tabulate(k - 1) { li =>
      val i = li + 1; val spec = plan.levels(li)
      val extend = !cfg.wholeListScans && plan.extendsParent(li)
      // the lists already merged into the parent's set, if this level extends it
      val merged = if (extend) plan.levels(li - 1).conn ++ plan.levels(li - 1).anti else Vector()
      val conn = spec.conn.filter(j => j != root && !merged.contains(j)).toArray
      val anti = spec.anti.filterNot(merged.contains).toArray
      // every input after the first (all local vertices when conn is
      // empty) is one merge; an extended set's first input is its parent's
      val merges = (if (extend) conn.length else math.max(conn.length, 1) - 1) + anti.length
      // lists fixed across the parent loop, for edge tasks; the lower of
      // two stable positions is re-marked less often
      def stable(p: Int) = !lgsMode && !extend && ((i >= 3 && p <= i - 2) || p == ownerPos)
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
  // Candidate-set views per position: (array, offset, length). Edge tasks
  // hold sorted lists, LGS tasks bit sets of the local vertices.
  private val buf = if (lgsMode) null else Array.ofDim[Int](k, cap)
  private val candArr = new Array[Array[Int]](k)
  private val candOff = new Array[Int](k)
  private val candLen = new Array[Int](k)
  // bitmap of position p's list, for the positions some level probes
  private val bits: Array[ListBitmap] = Array.tabulate(k) { p =>
    if (levels.exists(lv => lv != null && (lv.probe == p ||
        lv.anti.zip(lv.antiProbe).contains((p, true)) || (lv.stableBase && lv.conn(0) == p))))
      new ListBitmap(math.max(g.n, cap))
    else null
  }

  // LGS (opt F): the root's local graph as bit rows of `words` longs, row u
  // at u × words, with its length in rowLen(u); `all` holds every local
  // vertex. Row and set buffers are sized for the largest root.
  private val capWords = if (lgsMode) BitSetOps.words(cap) else 0
  private val rows = new Array[Long](if (lgsMode) cap * capWords else 0)
  private val rowLen = new Array[Int](if (lgsMode) cap else 0)
  private val all = new Array[Long](capWords)
  private val sets = Array.ofDim[Long](if (lgsMode) k else 0, capWords)
  private val setArr = new Array[Array[Long]](k)
  private val setOff = new Array[Int](k)
  private val rootBits = if (lgsMode) new ListBitmap(g.n) else null
  private val loc = new Array[Int](if (lgsMode) cap else 0)
  private var d = 0     // local vertices of the current LGS task
  private var words = 0 // ⌈d/64⌉

  /** The last level counts over owner rows: it is bounded by its merges,
    * its one bound is the owner from below, it neither extends nor reuses a
    * set, and the only matched vertex its injectivity check may read is the
    * owner, so it always only counts; it reads the list of some position
    * ≥ 2, and every list it merges is the owner's or that of a position
    * adjacent to the owner, a neighbour of the owner in every embedding.
    * Only on inputs where the rows fit ([[DfsEngine.ownerRowsFit]]).
    */
  private[engine] val rowLeaf: Boolean = !lgsMode && k >= 4 && fuseAt < 0 && {
    val lv = levels(k - 1); val lists = lv.conn ++ lv.anti
    lv.bounded && !lv.extend && lv.reuse < 0 && lv.uppers.isEmpty && lv.lowers.sameElements(Seq(ownerPos)) &&
      lv.unmatched.forall(_ == ownerPos) &&
      lists.exists(_ >= 2) && lists.forall(p => p == ownerPos || plan.searchOrder.posPattern.isEdge(p, ownerPos))
  } && DfsEngine.ownerRowsFit(g)

  // Owner rows (opt F's format for edge tasks): row x of `orows`, at
  // x × nWords, holds the list of the owner's x-th neighbour over the
  // vertex ids, and row `cap` the owner's own. A row is built on first use
  // and stamped with its owner; only its elements above the owner are set,
  // in the words from the owner's id + 1 to its last element, the only
  // words a pass reads. It records its list's length above the owner, the
  // steps of the trim to the owner and its last element above the owner
  // (or −1). `rowOf` maps the owner's neighbours to their rows; `leafSet`
  // holds a leaf's set between its merges.
  private val nWords = if (rowLeaf) BitSetOps.words(g.n) else 0
  private val orows = new Array[Long](if (rowLeaf) (cap + 1) * nWords else 0)
  private val rowStamp = Array.fill(if (rowLeaf) cap + 1 else 0)(-1)
  private val rowAboveOwner = new Array[Int](if (rowLeaf) cap + 1 else 0)
  private val rowTrim = new Array[Int](if (rowLeaf) cap + 1 else 0)
  private val rowLastOf = new Array[Int](if (rowLeaf) cap + 1 else 0)
  private val rowOf = new Array[Int](if (rowLeaf) g.n else 0)
  private var rowOwner = -1 // the owner rowOf indexes
  private val rowLists = if (rowLeaf) levels(k - 1).conn ++ levels(k - 1).anti else null
  private val leafSet = new Array[Long](if (rowLeaf && rowLists.length > 2) nWords else 0)
  private var rowAbove = 0 // of the row ownerRow last returned: its elements above the owner
  private var rowLast = 0  // and the last of them, or −1

  @inline private def nbrA: Array[Int] = g.nbrs
  @inline private def nOff(v: Int): Int = g.offsets(v)
  @inline private def nLen(v: Int): Int = g.offsets(v + 1) - g.offsets(v)

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
    while (x < js.length) { s += (if (lgsMode) rowLen(matched(js(x))) else nLen(matched(js(x)))); x += 1 }
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

  /** The size of the last level's set, computed over owner rows, adding the
    * work [[computeCands]] counts for it: the merges run in the same order
    * (`conn`, then `anti`), each list's trim to the owner comes from its
    * row's recorded rank, and each merge's steps from one pass over the
    * words between the owner and the last element it reaches
    * ([[BitSetOps.intersectFrom]], [[BitSetOps.differenceFrom]]). A set
    * kept between merges lies above the owner, so its own trims cost
    * nothing, as in the list merges.
    */
  private def countOnRows(lv: Level): Int = {
    val o = matched(ownerPos)
    if (o != rowOwner) {
      var x = 0; val off = nOff(o)
      while (x < nLen(o)) { rowOf(nbrA(off + x)) = x; x += 1 }
      rowOwner = o
    }
    val lo = o + 1; val nc = lv.conn.length; val last = rowLists.length - 1
    var a = orows; var aOff = ownerRow(rowLists(0)); var aN = rowAbove; var aL = rowLast
    var x = 1
    while (x <= last) {
      val bOff = ownerRow(rowLists(x))
      val out = if (x == last) null else leafSet
      aN =
        if (x < nc) BitSetOps.intersectFrom(a, aOff, aN, aL, orows, bOff, rowAbove, rowLast, lo, out, wc)
        else BitSetOps.differenceFrom(a, aOff, aN, aL, orows, bOff, rowLast, lo, out, wc)
      if (out != null && aN > 0) {
        // the set's last element: its highest bit, in the words written,
        // which end with the last element the merge reached
        var w = (if (x < nc) math.min(aL, rowLast) else aL) >>> 6
        while (out(w) == 0) w -= 1
        a = out; aOff = 0; aL = (w << 6) + 63 - java.lang.Long.numberOfLeadingZeros(out(w))
      }
      x += 1
    }
    aN
  }

  /** The offset of position p's row in `orows`, built if it is stale, with
    * its list's trim to the owner added to the work; sets `rowAbove` and
    * `rowLast`.
    */
  private def ownerRow(p: Int): Int = {
    val v = matched(p); val o = rowOwner
    val x = if (p == ownerPos) cap else rowOf(v)
    val base = x * nWords
    if (rowStamp(x) != o) {
      val off = nOff(v); val len = nLen(v)
      val r = java.util.Arrays.binarySearch(nbrA, off, off + len, o)
      val rank = (if (r >= 0) r + 1 else -r - 1) - off // elements at or below the owner
      val last = if (rank < len) nbrA(off + len - 1) else -1
      if (last >= 0) java.util.Arrays.fill(orows, base + ((o + 1) >>> 6), base + (last >>> 6) + 1, 0L)
      var i = off + rank
      while (i < off + len) { val u = nbrA(i); orows(base + (u >>> 6)) |= 1L << u; i += 1 }
      rowStamp(x) = o; rowAboveOwner(x) = len - rank; rowTrim(x) = SetOps.atMostSteps(len, rank); rowLastOf(x) = last
    }
    wc.add(rowTrim(x)); rowAbove = rowAboveOwner(x); rowLast = rowLastOf(x)
    base
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
      val c = if (rowLeaf) countOnRows(lv) else computeCands(i, countLast = true)
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

  /** LGS task (hub patterns): search v0's local induced graph (Fig. 7),
    * held as bit rows (opt F).
    */
  private def runLgsTask(v0: Int): Unit = {
    tasksRun += 1
    d = g.deg(v0); words = BitSetOps.words(d)
    java.util.Arrays.fill(rows, 0, d * words, 0L)
    var u = 0
    while (u < d) {
      val len = g.localList(v0, u, wc, rootBits, loc); val base = u * words
      var x = 0
      while (x < len) { val v = loc(x); rows(base + (v >>> 6)) |= 1L << v; x += 1 }
      rowLen(u) = len
      u += 1
    }
    java.util.Arrays.fill(all, 0, words, -1L)
    if ((d & 63) != 0) all(words - 1) = ~(-1L << d)
    // #local vertices with global id < v0 (the renaming keeps id order)
    val lo = -java.util.Arrays.binarySearch(g.nbrs, g.offsets(v0), g.offsets(v0 + 1), v0) - 1 - g.offsets(v0)
    matched(0) = lo
    matched(k) = lo - 1
    descendLocal(1)
  }

  /** Compute (or reuse) position i's candidate set over the local vertices
    * as bits and return its size, adding the work of the list merges
    * [[computeCands]] would run: a level extends, reuses and applies its
    * bounds as there, over the local graph's rows, with `all` standing for
    * an empty `conn` (every local vertex is a neighbour of the root).
    */
  private def computeSet(i: Int): Int = {
    val lv = levels(i)
    if (lv.reuse >= 0) {
      val j = lv.reuse; setArr(i) = setArr(j); setOff(i) = setOff(j); candLen(i) = candLen(j)
      savedWork += lenSum(lv.conn) + lenSum(lv.anti)
      return candLen(i)
    }
    val ub = if (lv.bounded) minKey(lv.uppers) else Int.MaxValue
    val lb = if (lv.bounded) maxKey(lv.lowers) else Int.MinValue
    val conn = lv.conn; var arr = all; var off = 0; var len = d; var ci = 0
    if (lv.extend) { arr = setArr(i - 1); off = setOff(i - 1); len = candLen(i - 1) }
    else if (conn.length > 0) { val c = matched(conn(0)); arr = rows; off = c * words; len = rowLen(c); ci = 1 }
    val out = sets(i)
    while (ci < conn.length) {
      val c = matched(conn(ci))
      len = BitSetOps.intersect(arr, off, len, rows, c * words, rowLen(c), out, 0, d, wc, ub, lb)
      arr = out; off = 0; ci += 1
    }
    var ai = 0
    while (ai < lv.anti.length) {
      val a = matched(lv.anti(ai))
      len = BitSetOps.difference(arr, off, len, rows, a * words, rowLen(a), out, 0, d, wc, ub, lb)
      arr = out; off = 0; ai += 1
    }
    setArr(i) = arr; setOff(i) = off; candLen(i) = len
    len
  }

  /** [[matchedInRange]] over the `n` elements of position i's set in
    * [lo, hi), with each search's steps replayed from its rank. A matched
    * vertex outside [lo, hi) is outside the searched range.
    */
  private def matchedInSet(i: Int, lo: Int, hi: Int, n: Int): Int = {
    val js = levels(i).unmatched
    var x = 0
    while (x < js.length && { val v = matched(js(x)); v < lo || v >= hi }) x += 1
    if (n == 0 || x == js.length) return 0
    val arr = setArr(i); val off = setOff(i)
    val min = BitSetOps.lowest(arr, off, lo, hi); val max = BitSetOps.highest(arr, off, lo, hi)
    var cnt = 0
    while (x < js.length) {
      val v = matched(js(x))
      if (v >= min && v <= max) {
        val in = BitSetOps.has(arr, off, v)
        wc.add(SetOps.containsSteps(n, BitSetOps.count(arr, off, min, v), in))
        if (in) cnt += 1
      }
      x += 1
    }
    cnt
  }

  /** [[descend]] over bit sets: the same leaves, cuts and loops, each
    * adding the steps its list form counts. The loop visits the set's
    * elements by trailing-zero scans; a leaf takes its size from popcounts.
    */
  private def descendLocal(i: Int): Unit = {
    val lv = levels(i)
    val len = computeSet(i)
    if (i == fuseAt) {
      val n = (len - matchedInSet(i, 0, d, len)).toLong
      count += n * (n - 1) / 2
      lvl(i) += n
      lvl(i + 1) += n * (n - 1) / 2
      return
    }
    val arr = setArr(i); val off = setOff(i)
    // the set's elements lie in [lo, hi): a bounded level's merges keep
    // (lb, ub); any other level is cut as in descend, countAtMost(lb), then
    // countBelow(ub) above it
    var lo = BitSetOps.from(maxKey(lv.lowers), d); var hi = BitSetOps.until(minKey(lv.uppers), d); var n = len
    if (!lv.bounded) {
      val r = BitSetOps.count(arr, off, 0, lo)
      wc.add(SetOps.atMostSteps(n, r)); n -= r
      if (lv.uppers.length > 0) {
        hi = math.max(lo, hi)
        val below = BitSetOps.count(arr, off, lo, hi)
        wc.add(SetOps.atMostSteps(n, below)); n = below
      }
    }
    if (i == k - 1) {
      val c = n - matchedInSet(i, lo, hi, n)
      count += c
      lvl(i) += c
    } else if (n > 0) {
      val unmatched = lv.unmatched
      var w = lo >>> 6; val last = (hi - 1) >>> 6
      while (w <= last) {
        var x = arr(off + w)
        if (w == lo >>> 6) x &= -1L << lo
        if (w == last) x &= -1L >>> (63 - ((hi - 1) & 63))
        while (x != 0) {
          val v = (w << 6) + java.lang.Long.numberOfTrailingZeros(x)
          x &= x - 1
          if (!isMatched(v, unmatched)) {
            matched(i) = v
            lvl(i) += 1
            descendLocal(i + 1)
          }
        }
        w += 1
      }
      wc.add(n.toLong)
    }
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
    * holds its root's induced neighbourhood as bit rows, and each executor
    * sizes one row buffer for the largest root: Δ·⌈Δ/64⌉ words, 2 MiB at
    * Δ = 4096. The Tw2, Tw4 and Uk analogs exceed it (Δ ≈ 5.9 K–13.8 K);
    * no oriented analog does. The same 2 MiB bounds an edge-task
    * executor's owner rows ([[ownerRowsFit]]).
    */
  val LgsMaxDegree = 4096

  /** The row budget LGS and owner rows share, in words. */
  private val RowBudget = LgsMaxDegree.toLong * BitSetOps.words(LgsMaxDegree)

  /** Whether edge tasks may count their leaves over owner rows on `g`
    * (see [[PlanExecutor]]): Δ + 1 rows of ⌈n/64⌉ words fit the LGS row
    * budget, and a row pass is no longer than the mean neighbour list a
    * merge scans, ⌈n/64⌉ ≤ Σd²/Σd. Of the seed-0 analogs Or, Lj and Lj/2
    * pass; Tw2, Tw4, Uk and Fr exceed the budget, and Fr's rows are also
    * longer than its mean list (344 words against 48.3).
    */
  private[engine] def ownerRowsFit(g: CSRGraph): Boolean = {
    val words = BitSetOps.words(g.n).toLong
    var sq = 0L; var v = 0
    while (v < g.n) { val d = g.deg(v).toLong; sq += d * d; v += 1 }
    (g.maxDegree + 1L) * words <= RowBudget && words * g.numArcs <= sq
  }

  /** Orientation rewrites clique plans onto the DAG (opt A); LGS switches
    * hub patterns to vertex-rooted local search (opt E), one slot per
    * vertex. Otherwise there is one slot per arc, and the tasks are edges:
    * under a (v0, v1) symmetry condition one per undirected edge (opt J);
    * without one, every arc. The oriented clique plan has no conditions, so
    * it takes every DAG arc.
    */
  private def prepare(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig): Prepared = {
    require(plan.k >= 2, s"pattern size ${plan.k}: the engine's tasks are edges, so a pattern needs at least 2 vertices")
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
