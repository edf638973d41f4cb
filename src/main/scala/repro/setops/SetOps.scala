package repro.setops

/** Element steps counted by the set primitives. */
final class WorkCounter extends Serializable {
  var ops: Long = 0L
  @inline def add(n: Long): Unit = ops += n
}

/** A bitmap of one sorted list's elements, which must lie in
  * [0, `capacity`). It remembers the view it holds: [[mark]] of that view
  * again is free, and marking another view first clears the previous one's
  * bits by walking its list, so a mark costs the two lists' lengths, never
  * the capacity. The marked list must not change while it is held.
  */
final class ListBitmap(capacity: Int) {
  private val words = new Array[Long](math.max(1, (capacity + 63) >>> 6))
  private var arr: Array[Int] = null
  private var off = 0
  private var len = 0

  @inline def holds(a: Array[Int], aOff: Int, aLen: Int): Boolean = (a eq arr) && aOff == off && aLen == len

  def mark(a: Array[Int], aOff: Int, aLen: Int): Unit =
    if (!holds(a, aOff, aLen)) {
      var x = off
      while (x < off + len) { words(arr(x) >>> 6) = 0L; x += 1 }
      arr = a; off = aOff; len = aLen
      x = off
      while (x < off + len) { val v = a(x); words(v >>> 6) |= 1L << v; x += 1 }
    }

  /** Whether `v` is an element of the held list. */
  @inline def has(v: Int): Boolean = ((words(v >>> 6) >>> v) & 1L) != 0

  /** 1 if `v` is an element of the held list, else 0: a count adds it. */
  @inline def bit(v: Int): Int = ((words(v >>> 6) >>> v) & 1L).toInt
}

/** Set primitives over sorted Int array *views* — the analog of the paper's
  * GPU device-function library (§6). A view is (array, offset, length), so
  * neighbor lists can be used in place inside the CSR arrays. Every
  * primitive reports the number of element steps it performed through a
  * [[WorkCounter]]; those counts feed the cost model that converts measured
  * work into simulated device time. The merges take the symmetry order's
  * bounds (set bounding, §6.1): they skip each list's prefix up to an
  * exclusive lower bound by binary search and exit early at an exclusive
  * upper bound, so the merge spends no step on a candidate a bound drops.
  * A set built without bounds is cut by [[countAtMost]] and [[countBelow]],
  * which share one binary search.
  *
  * Where one input stays fixed across an inner loop (§6's buffered `W`),
  * [[intersectProbed]] and [[differenceProbed]] build the same set by
  * scanning the other input and probing a [[ListBitmap]] of the fixed one.
  * They count the steps the bounded linear merge would take, computed in
  * closed form from the list positions, so the work a set reports does
  * not depend on the kernel that built it.
  *
  * Where only a set's size is read (a DFS leaf), the count-only forms
  * [[intersectCount]], [[differenceCount]], [[intersectProbedCount]] and
  * [[differenceProbedCount]] return their twin's |out| and add their
  * twin's work, computed the same way, with no output buffer: they store
  * nothing, and the probed ones add bitmap bits instead of branching on
  * them. [[differenceStableCount]] counts A − B when the bitmap holds A,
  * the first list, by scanning B instead of A.
  *
  * Outputs are always written from index 0 of `out`. In-place chaining
  * (`out eq a` with offset 0) is safe for every merge because the write
  * cursor never passes the read cursor, which starts at or after the
  * trimmed prefix.
  */
object SetOps {

  /** out = A ∩ B by linear merge, keeping only elements in (`lb`, `ub`):
    * each list's prefix up to the lower bound is skipped by
    * [[countAtMost]], and the merge stops as soon as A passes the upper
    * bound (symmetry-break set bounding on sorted lists, §6.1). The
    * defaults bound no vertex id. Work is the search steps plus one step per
    * element the merge advances past, `i + j` counted from the trimmed
    * starts; the skipped prefixes cost nothing more. Returns |out|.
    */
  def intersect(a: Array[Int], aOff: Int, aLen: Int,
                b: Array[Int], bOff: Int, bLen: Int,
                out: Array[Int], wc: WorkCounter, ub: Int = Int.MaxValue,
                lb: Int = Int.MinValue): Int = {
    val i0 = countAtMost(a, aOff, aLen, lb, wc); val j0 = countAtMost(b, bOff, bLen, lb, wc)
    var i = i0; var j = j0; var o = 0
    while (i < aLen && j < bLen) {
      val x = a(aOff + i)
      if (x >= ub) { wc.add((i - i0).toLong + (j - j0)); return o }
      val y = b(bOff + j)
      if (x == y) { out(o) = x; o += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    wc.add((i - i0).toLong + (j - j0))
    o
  }

  /** |A ∩ B| within (`lb`, `ub`): [[intersect]]'s count and work. */
  def intersectCount(a: Array[Int], aOff: Int, aLen: Int,
                     b: Array[Int], bOff: Int, bLen: Int,
                     wc: WorkCounter, ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Int = {
    val i0 = countAtMost(a, aOff, aLen, lb, wc); val j0 = countAtMost(b, bOff, bLen, lb, wc)
    var i = i0; var j = j0; var o = 0
    while (i < aLen && j < bLen) {
      val x = a(aOff + i)
      if (x >= ub) { wc.add((i - i0).toLong + (j - j0)); return o }
      val y = b(bOff + j)
      if (x == y) { o += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    wc.add((i - i0).toLong + (j - j0))
    o
  }

  /** out = A − B by linear merge, keeping only elements in (`lb`, `ub`),
    * bounded and counted as in [[intersect]]: the search steps plus
    * `i + j` from the trimmed starts, on early exit and on completion
    * alike. Returns |out|.
    */
  def difference(a: Array[Int], aOff: Int, aLen: Int,
                 b: Array[Int], bOff: Int, bLen: Int,
                 out: Array[Int], wc: WorkCounter, ub: Int = Int.MaxValue,
                 lb: Int = Int.MinValue): Int = {
    val i0 = countAtMost(a, aOff, aLen, lb, wc); val j0 = countAtMost(b, bOff, bLen, lb, wc)
    var i = i0; var j = j0; var o = 0
    while (i < aLen) {
      val x = a(aOff + i)
      if (x >= ub) { wc.add((i - i0).toLong + (j - j0)); return o }
      while (j < bLen && b(bOff + j) < x) j += 1
      if (j >= bLen || b(bOff + j) != x) { out(o) = x; o += 1 }
      i += 1
    }
    wc.add((i - i0).toLong + (j - j0))
    o
  }

  /** |A − B| within (`lb`, `ub`): [[difference]]'s count and work. */
  def differenceCount(a: Array[Int], aOff: Int, aLen: Int,
                      b: Array[Int], bOff: Int, bLen: Int,
                      wc: WorkCounter, ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Int = {
    val i0 = countAtMost(a, aOff, aLen, lb, wc); val j0 = countAtMost(b, bOff, bLen, lb, wc)
    var i = i0; var j = j0; var o = 0
    while (i < aLen) {
      val x = a(aOff + i)
      if (x >= ub) { wc.add((i - i0).toLong + (j - j0)); return o }
      while (j < bLen && b(bOff + j) < x) j += 1
      if (j >= bLen || b(bOff + j) != x) o += 1
      i += 1
    }
    wc.add((i - i0).toLong + (j - j0))
    o
  }

  /** out = A ∩ B, the set and the counted work of [[intersect]], where
    * `bits` holds A or B: the other input is scanned from its `lb` trim to
    * the last element the two lists can share below `ub`, keeping the
    * elements whose bit is set, so the scan never passes more elements
    * than the merge would. With A* = A′ (A after its trim) below `ub`,
    * aL = last of A* and bL = last of B′, the merge steps are
    * |A*| + #{B′ ≤ aL} if aL ≤ bL, else |B′| + #{A* ≤ bL}, and 0 if A* or
    * B′ is empty. The scan finds one of the two terms; a search finds the
    * other (if any), uncounted, as the merge makes no search. Returns |out|.
    */
  def intersectProbed(a: Array[Int], aOff: Int, aLen: Int,
                      b: Array[Int], bOff: Int, bLen: Int, bits: ListBitmap,
                      out: Array[Int], wc: WorkCounter, ub: Int = Int.MaxValue,
                      lb: Int = Int.MinValue): Int = {
    val aS = aOff + countAtMost(a, aOff, aLen, lb, wc); val aE = aOff + aLen
    val bS = bOff + countAtMost(b, bOff, bLen, lb, wc); val bE = bOff + bLen
    if (aS == aE || bS == bE || a(aS) >= ub) return 0
    val bL = b(bE - 1)
    var o = 0
    if (bits.holds(a, aOff, aLen)) { // scan B′ up to aL
      val aN = if (a(aE - 1) < ub) aE - aS else countLess(a, aS, aE, ub)
      val aL = a(aS + aN - 1)
      var y = bS
      while (y < bE && b(y) <= aL) {
        val v = b(y)
        if (bits.has(v)) { out(o) = v; o += 1 }
        y += 1
      }
      wc.add(if (aL <= bL) aN.toLong + (y - bS) else (bE - bS).toLong + countLess(a, aS, aS + aN, bL + 1))
    } else { // scan A* up to bL
      val last = math.min(ub - 1, bL)
      var x = aS
      while (x < aE && a(x) <= last) {
        val v = a(x)
        if (bits.has(v)) { out(o) = v; o += 1 }
        x += 1
      }
      wc.add(
        if (x < aE && a(x) < ub) (bE - bS).toLong + (x - aS) // a(x) > bL: aL > bL
        else (x - aS).toLong + countLess(b, bS, bE, a(x - 1) + 1))
    }
    o
  }

  /** |A ∩ B| within (`lb`, `ub`): [[intersectProbed]]'s count and work. */
  def intersectProbedCount(a: Array[Int], aOff: Int, aLen: Int,
                           b: Array[Int], bOff: Int, bLen: Int, bits: ListBitmap,
                           wc: WorkCounter, ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Int = {
    val aS = aOff + countAtMost(a, aOff, aLen, lb, wc); val aE = aOff + aLen
    val bS = bOff + countAtMost(b, bOff, bLen, lb, wc); val bE = bOff + bLen
    if (aS == aE || bS == bE || a(aS) >= ub) return 0
    val bL = b(bE - 1)
    var o = 0
    if (bits.holds(a, aOff, aLen)) {
      val aN = if (a(aE - 1) < ub) aE - aS else countLess(a, aS, aE, ub)
      val aL = a(aS + aN - 1)
      var y = bS
      while (y < bE && b(y) <= aL) { o += bits.bit(b(y)); y += 1 }
      wc.add(if (aL <= bL) aN.toLong + (y - bS) else (bE - bS).toLong + countLess(a, aS, aS + aN, bL + 1))
    } else {
      val last = math.min(ub - 1, bL)
      var x = aS
      while (x < aE && a(x) <= last) { o += bits.bit(a(x)); x += 1 }
      wc.add(
        if (x < aE && a(x) < ub) (bE - bS).toLong + (x - aS)
        else (x - aS).toLong + countLess(b, bS, bE, a(x - 1) + 1))
    }
    o
  }

  /** out = A − B, the set and the counted work of [[difference]], where
    * `bits` holds B: A is scanned from its `lb` trim up to `ub`, keeping
    * the elements whose bit is clear. With A* and aL as in
    * [[intersectProbed]], the merge steps are |A*| + #{B′ < aL}; the scan
    * finds the first term and an uncounted search the second.
    */
  def differenceProbed(a: Array[Int], aOff: Int, aLen: Int,
                       b: Array[Int], bOff: Int, bLen: Int, bits: ListBitmap,
                       out: Array[Int], wc: WorkCounter, ub: Int = Int.MaxValue,
                       lb: Int = Int.MinValue): Int = {
    val aS = aOff + countAtMost(a, aOff, aLen, lb, wc); val aE = aOff + aLen
    val bS = bOff + countAtMost(b, bOff, bLen, lb, wc)
    var x = aS; var o = 0
    while (x < aE && a(x) < ub) {
      val v = a(x)
      if (!bits.has(v)) { out(o) = v; o += 1 }
      x += 1
    }
    if (x > aS) wc.add((x - aS).toLong + countLess(b, bS, bOff + bLen, a(x - 1)))
    o
  }

  /** |A − B| within (`lb`, `ub`): [[differenceProbed]]'s count and work,
    * with `bits` holding B.
    */
  def differenceProbedCount(a: Array[Int], aOff: Int, aLen: Int,
                            b: Array[Int], bOff: Int, bLen: Int, bits: ListBitmap,
                            wc: WorkCounter, ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Int = {
    val aS = aOff + countAtMost(a, aOff, aLen, lb, wc); val aE = aOff + aLen
    val bS = bOff + countAtMost(b, bOff, bLen, lb, wc)
    var x = aS; var hits = 0
    while (x < aE && a(x) < ub) { hits += bits.bit(a(x)); x += 1 }
    if (x > aS) wc.add((x - aS).toLong + countLess(b, bS, bOff + bLen, a(x - 1)))
    (x - aS) - hits
  }

  /** |A − B| within (`lb`, `ub`) and [[difference]]'s work, where `bits`
    * holds A, a list that stays fixed while B changes. With A*, aL and B′
    * as in [[intersectProbed]], the count is |A*| − |A* ∩ B′|: B′ is
    * scanned up to aL, adding the bits of its elements, and |A*| is the
    * trimmed length or an uncounted search for `ub`. The merge steps are
    * |A*| + #{B′ < aL}, the scan's length less aL itself if B′ holds it.
    */
  def differenceStableCount(a: Array[Int], aOff: Int, aLen: Int,
                            b: Array[Int], bOff: Int, bLen: Int, bits: ListBitmap,
                            wc: WorkCounter, ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Int = {
    val aS = aOff + countAtMost(a, aOff, aLen, lb, wc); val aE = aOff + aLen
    val bS = bOff + countAtMost(b, bOff, bLen, lb, wc); val bE = bOff + bLen
    if (aS == aE || a(aS) >= ub) return 0
    val aN = if (a(aE - 1) < ub) aE - aS else countLess(a, aS, aE, ub)
    val aL = a(aS + aN - 1)
    var y = bS; var hits = 0
    while (y < bE && b(y) < aL) { hits += bits.bit(b(y)); y += 1 }
    wc.add(aN.toLong + (y - bS))
    if (y < bE && b(y) == aL) hits += 1
    aN - hits
  }

  /** Number of elements in a(from until to) below `x`, found by an
    * uncounted galloping search from `from`, so a short prefix costs a few
    * probes. The probed merges use it to reach the step count a merge
    * would, not to find anything.
    */
  private def countLess(a: Array[Int], from: Int, to: Int, x: Int): Int = {
    var lo = from; var hi = from; var step = 1
    while (hi < to && a(hi) < x) { lo = hi + 1; hi = if (to - hi > step) hi + step else to; step <<= 1 }
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < x) lo = mid + 1 else hi = mid
    }
    lo - from
  }

  /** Number of leading elements of the view at or below `lb`: the prefix
    * an exclusive lower bound drops. A view that starts above `lb` costs
    * nothing; otherwise the prefix is found by binary search, one step per
    * probe.
    */
  def countAtMost(a: Array[Int], off: Int, len: Int, lb: Int, wc: WorkCounter): Int = {
    if (len == 0 || a(off) > lb) return 0
    var lo = 1; var hi = len
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(off + mid) <= lb) lo = mid + 1 else hi = mid
      wc.add(1)
    }
    lo
  }

  /** The steps [[countAtMost]] counts on a view of `len` elements of which
    * `rank` lie at or below the bound: its binary search, replayed on
    * positions alone (looked up for views shorter than 256).
    * [[countBelow]] counts `rank` = #{elements < bound}.
    */
  def atMostSteps(len: Int, rank: Int): Int =
    if (len < ShortView) atMostShort(len << 8 | rank) else replayAtMost(len, rank)

  // Views shorter than this take their replayed search steps from tables
  // of every (length, rank): 64 KiB for countAtMost, 128 KiB for contains.
  private final val ShortView = 256

  private def replayAtMost(len: Int, rank: Int): Int = {
    if (len == 0 || rank == 0) return 0
    var lo = 1; var hi = len; var s = 0
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (mid < rank) lo = mid + 1 else hi = mid
      s += 1
    }
    s
  }

  private val atMostShort: Array[Byte] =
    Array.tabulate(ShortView * ShortView)(x => replayAtMost(x >>> 8, math.min(x & 255, x >>> 8)).toByte)

  /** Number of elements of the view strictly below `bound` — the paper's
    * "set bounding" primitive (§6.1): [[countAtMost]]`(bound − 1)`, so a
    * view that starts at or above `bound` costs nothing. No element lies
    * below `Int.MinValue`.
    */
  def countBelow(a: Array[Int], off: Int, len: Int, bound: Int, wc: WorkCounter): Int =
    if (bound == Int.MinValue) 0 else countAtMost(a, off, len, bound - 1, wc)

  /** The steps [[contains]] counts for an `x` with `rank` smaller elements
    * in a view of `len`, `present` or not: its search, replayed on
    * positions alone (looked up for views shorter than 256).
    */
  def containsSteps(len: Int, rank: Int, present: Boolean): Int =
    if (len < ShortView) containsShort(len << 9 | rank << 1 | (if (present) 1 else 0))
    else replayContains(len, rank, present)

  private def replayContains(len: Int, rank: Int, present: Boolean): Int = {
    var lo = 0; var hi = len - 1; var s = 0
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      s += 1
      if (present && mid == rank) return s
      else if (mid < rank) lo = mid + 1
      else hi = mid - 1
    }
    s
  }

  private val containsShort: Array[Byte] = Array.tabulate(2 * ShortView * ShortView) { x =>
    val len = x >>> 9
    replayContains(len, math.min((x >>> 1) & 255, len), (x & 1) == 1).toByte
  }

  /** Membership test via binary search over the view. */
  def contains(a: Array[Int], off: Int, len: Int, x: Int, wc: WorkCounter): Boolean = {
    var lo = 0; var hi = len - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      wc.add(1)
      val v = a(off + mid)
      if (v == x) return true
      else if (v < x) lo = mid + 1
      else hi = mid - 1
    }
    false
  }
}
