package repro.setops

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
  * Outputs are always written from index 0 of `out`. In-place chaining
  * (`out eq a` with offset 0) is safe for intersect/difference because the
  * write cursor never passes the read cursor, which starts at or after
  * the trimmed prefix.
  */
final class WorkCounter extends Serializable {
  var ops: Long = 0L
  @inline def add(n: Long): Unit = ops += n
}

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

  /** Number of elements of the view strictly below `bound` — the paper's
    * "set bounding" primitive (§6.1): [[countAtMost]]`(bound − 1)`, so a
    * view that starts at or above `bound` costs nothing. No element lies
    * below `Int.MinValue`.
    */
  def countBelow(a: Array[Int], off: Int, len: Int, bound: Int, wc: WorkCounter): Int =
    if (bound == Int.MinValue) 0 else countAtMost(a, off, len, bound - 1, wc)

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
