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
}
