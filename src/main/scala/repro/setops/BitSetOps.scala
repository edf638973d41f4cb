package repro.setops

import java.lang.Long.{bitCount, numberOfLeadingZeros, numberOfTrailingZeros}

/** Set primitives over bit sets of a universe [0, n) — the bitmap format of
  * a local graph (optimization F, §6.2). A set is a view (array, offset)
  * of ⌈n/64⌉ words whose bit v is element v, with its size alongside; bits
  * at n and above stay clear.
  *
  * [[intersect]] and [[difference]] compute the set that [[SetOps]]'
  * bounded merge of the same sorted lists would build, in words, and add
  * that merge's counted steps to the [[WorkCounter]], computed in closed
  * form from popcounts, ranks and highest set bits: the `lb` trims are
  * [[SetOps.countAtMost]] searches ([[SetOps.atMostSteps]]), and the merge
  * steps are those [[SetOps.intersectProbed]] and [[SetOps.differenceProbed]]
  * document. The work a set reports therefore does not depend on its
  * format. Ranges are half-open bit ranges [from, to).
  *
  * [[intersectFrom]] and [[differenceFrom]] serve rows of neighbour lists
  * over vertex ids, whose universe is far larger than the sets, each kept
  * only from the lower bound to its last element: the caller counts the
  * trims from ranks it recorded, and each pass reads only the words
  * between the bound and the last element the merge reaches.
  */
object BitSetOps {

  @inline def words(n: Int): Int = (n + 63) >>> 6

  /** The mask of the bits of word `w` that lie in [from, to). */
  @inline private def mask(w: Int, from: Int, to: Int): Long = {
    val base = w << 6
    if (from >= base + 64 || to <= base) 0L
    else (if (from > base) -1L << from else -1L) & (if (to < base + 64) ~(-1L << to) else -1L)
  }

  /** Number of elements in [from, to). */
  def count(a: Array[Long], off: Int, from: Int, to: Int): Int = {
    if (from >= to) return 0
    val fw = from >>> 6; val tw = (to - 1) >>> 6
    if (fw == tw) return bitCount(a(off + fw) & mask(fw, from, to))
    var c = bitCount(a(off + fw) & (-1L << from)) + bitCount(a(off + tw) & mask(tw, from, to))
    var w = fw + 1
    while (w < tw) { c += bitCount(a(off + w)); w += 1 }
    c
  }

  /** The largest element in [from, to), or −1. */
  def highest(a: Array[Long], off: Int, from: Int, to: Int): Int = {
    if (from >= to) return -1
    val fw = from >>> 6
    var w = (to - 1) >>> 6
    while (w >= fw) {
      val x = a(off + w) & mask(w, from, to)
      if (x != 0) return (w << 6) + 63 - numberOfLeadingZeros(x)
      w -= 1
    }
    -1
  }

  /** The smallest element in [from, to), or −1. */
  def lowest(a: Array[Long], off: Int, from: Int, to: Int): Int = {
    if (from >= to) return -1
    val tw = (to - 1) >>> 6
    var w = from >>> 6
    while (w <= tw) {
      val x = a(off + w) & mask(w, from, to)
      if (x != 0) return (w << 6) + numberOfTrailingZeros(x)
      w += 1
    }
    -1
  }

  /** Whether `v` is an element. */
  @inline def has(a: Array[Long], off: Int, v: Int): Boolean = ((a(off + (v >>> 6)) >>> v) & 1L) != 0

  /** The first bit an exclusive lower bound keeps, in [0, n]. */
  @inline def from(lb: Int, n: Int): Int = if (lb < 0) 0 else if (lb >= n) n else lb + 1

  /** The bit an exclusive upper bound stops at, in [0, n]. */
  @inline def until(ub: Int, n: Int): Int = if (ub <= 0) 0 else if (ub > n) n else ub

  /** out = A ∩ B within (`lb`, `ub`), adding [[SetOps.intersect]]'s work on
    * the same lists: the trims of both, then, with A* = A′ below `ub`,
    * aL = max A* and bL = max B′, |A*| + #{B′ ≤ aL} if aL ≤ bL, else
    * |B′| + #{A* ≤ bL}, and nothing more if A* or B′ is empty. One pass
    * over the words finds the set and every count the steps need, after
    * two top-down scans for aL and bL. `out` may be A. Returns |out|.
    */
  def intersect(a: Array[Long], aOff: Int, aLen: Int, b: Array[Long], bOff: Int, bLen: Int,
                out: Array[Long], oOff: Int, n: Int, wc: WorkCounter,
                ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Int = {
    val lo = from(lb, n); val hi = until(ub, n)
    val aL = highest(a, aOff, lo, hi); val bL = highest(b, bOff, lo, n)
    // the list whose prefix up to the other's last element the merge passes
    val aLast = aL <= bL; val last = (if (aLast) aL else bL) + 1
    var aBelow = 0; var bBelow = 0; var aN = 0; var passed = 0; var o = 0
    var w = 0; val nw = words(n)
    while (w < nw) {
      val x = a(aOff + w); val y = b(bOff + w)
      val below = mask(w, 0, lo); val in = mask(w, lo, hi)
      aBelow += bitCount(x & below); bBelow += bitCount(y & below); aN += bitCount(x & in)
      passed += bitCount((if (aLast) y else x) & mask(w, lo, last))
      val z = x & y & in
      out(oOff + w) = z; o += bitCount(z); w += 1
    }
    val bN = bLen - bBelow
    wc.add(SetOps.atMostSteps(aLen, aBelow).toLong + SetOps.atMostSteps(bLen, bBelow) +
      (if (aN == 0 || bN == 0) 0 else if (aLast) aN + passed else bN + passed))
    o
  }

  /** out = A − B within (`lb`, `ub`), adding [[SetOps.difference]]'s work
    * on the same lists: the trims of both, then |A*| + #{B′ < aL}, or
    * nothing more if A* is empty, counted in the pass that finds the set,
    * after a top-down scan for aL. `out` may be A. Returns |out|.
    */
  def difference(a: Array[Long], aOff: Int, aLen: Int, b: Array[Long], bOff: Int, bLen: Int,
                 out: Array[Long], oOff: Int, n: Int, wc: WorkCounter,
                 ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Int = {
    val lo = from(lb, n); val hi = until(ub, n)
    val aL = highest(a, aOff, lo, hi)
    var aBelow = 0; var bBelow = 0; var aN = 0; var passed = 0; var o = 0
    var w = 0; val nw = words(n)
    while (w < nw) {
      val x = a(aOff + w); val y = b(bOff + w)
      val below = mask(w, 0, lo); val in = mask(w, lo, hi)
      aBelow += bitCount(x & below); bBelow += bitCount(y & below); aN += bitCount(x & in)
      passed += bitCount(y & mask(w, lo, aL))
      val z = x & ~y & in
      out(oOff + w) = z; o += bitCount(z); w += 1
    }
    wc.add(SetOps.atMostSteps(aLen, aBelow).toLong + SetOps.atMostSteps(bLen, bBelow) +
      (if (aN == 0) 0 else aN + passed))
    o
  }

  /** |A′ ∩ B′| for sets A′, B′ of elements at or above `lo` (lists cut by a
    * lower bound `lo` − 1 whose trims the caller counts), with `aN`, `bN`
    * elements and last elements `aL`, `bL`. Adds the merge steps of
    * [[intersect]], |A′| + #{B′ ≤ aL} if aL ≤ bL, else |B′| + #{A′ ≤ bL},
    * or nothing if A′ or B′ is empty, in one pass over the words of
    * [lo, min(aL, bL)], the only words it reads. Writes those words of
    * A′ ∩ B′ to `out` unless it is null. Returns the size.
    */
  def intersectFrom(a: Array[Long], aOff: Int, aN: Int, aL: Int, b: Array[Long], bOff: Int, bN: Int, bL: Int,
                    lo: Int, out: Array[Long], wc: WorkCounter): Int = {
    if (aN == 0 || bN == 0) return 0
    // the merge passes B′ up to aL if aL ≤ bL, else A′ up to bL
    val aLast = aL <= bL; val last = if (aLast) aL else bL
    val fw = lo >>> 6; val lw = last >>> 6
    // masks of the first and the last word, which may be the same word
    val mL = -1L >>> (63 - (last & 63)); val mF = if (fw == lw) (-1L << lo) & mL else -1L << lo
    var x = a(aOff + fw) & mF; var y = b(bOff + fw) & mF
    var o = bitCount(x & y); var passed = bitCount(if (aLast) y else x)
    if (out != null) out(fw) = x & y
    if (lw > fw) {
      var w = fw + 1
      if (out != null) while (w < lw) {
        x = a(aOff + w); y = b(bOff + w)
        out(w) = x & y; o += bitCount(x & y); passed += bitCount(if (aLast) y else x); w += 1
      }
      else if (aLast) while (w < lw) { y = b(bOff + w); o += bitCount(a(aOff + w) & y); passed += bitCount(y); w += 1 }
      else while (w < lw) { x = a(aOff + w); o += bitCount(x & b(bOff + w)); passed += bitCount(x); w += 1 }
      x = a(aOff + lw) & mL; y = b(bOff + lw) & mL
      o += bitCount(x & y); passed += bitCount(if (aLast) y else x)
      if (out != null) out(lw) = x & y
    }
    wc.add((if (aLast) aN else bN).toLong + passed)
    o
  }

  /** |A′ − B′| for A′, B′ as in [[intersectFrom]], B′'s last element `bL`
    * or −1 if it is empty. Adds the merge steps of [[difference]],
    * |A′| + #{B′ < aL}, or nothing if A′ is empty, in one pass over the
    * words of [lo, aL], reading B's only up to bL. Writes those words of
    * A′ − B′ to `out` unless it is null. Returns the size.
    */
  def differenceFrom(a: Array[Long], aOff: Int, aN: Int, aL: Int, b: Array[Long], bOff: Int, bL: Int,
                     lo: Int, out: Array[Long], wc: WorkCounter): Int = {
    if (aN == 0) return 0
    val fw = lo >>> 6; val lw = aL >>> 6; val bw = if (bL < 0) -1 else bL >>> 6
    var o = 0; var passed = 0; var w = fw
    while (w <= lw) {
      val m = (if (w == fw) -1L << lo else -1L) & (if (w == lw) -1L >>> (63 - (aL & 63)) else -1L)
      val x = a(aOff + w) & m; val y = if (w <= bw) b(bOff + w) & m else 0L
      o += bitCount(x & ~y); passed += bitCount(y)
      if (out != null) out(w) = x & ~y
      w += 1
    }
    // aL is in A′: B′ ∋ aL is not below it
    if (aL <= bL) passed -= ((b(bOff + lw) >>> aL) & 1L).toInt
    wc.add(aN.toLong + passed)
    o
  }
}
