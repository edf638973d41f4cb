package repro.setops

import org.scalatest.funsuite.AnyFunSuite

/** The bit-set kernel against the list kernel it stands for: the same set
  * and the same counted work, on universes whose size and bounds fall on
  * and around 64-bit word edges.
  */
class BitSetOpsSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(7)
  private val sizes = Seq(0, 1, 63, 64, 65, 127, 128, 129, 200)

  private def randomSet(n: Int): Array[Int] = {
    val p = rnd.nextDouble()
    (0 until n).filter(_ => rnd.nextDouble() < p).toArray
  }

  /** A slot of `pad` words before the set's ⌈n/64⌉, so views have offsets. */
  private def bits(xs: Array[Int], n: Int, pad: Int): Array[Long] = {
    val a = new Array[Long](pad + BitSetOps.words(n))
    xs.foreach(v => a(pad + (v >>> 6)) |= 1L << v)
    a
  }

  private def elems(a: Array[Long], off: Int, n: Int): Seq[Int] = (0 until n).filter(BitSetOps.has(a, off, _))

  private def randomBound(n: Int): Int = rnd.nextInt(6) match {
    case 0 => Int.MinValue
    case 1 => Int.MaxValue
    case 2 => (rnd.nextInt(4) - 1) * 64 + rnd.nextInt(3) - 1 // on and around word edges
    case _ => rnd.nextInt(n + 3) - 2
  }

  test("count, highest and lowest agree with the element list on every range, across word edges") {
    for (n <- sizes; _ <- 1 to 3) {
      val xs = randomSet(n); val a = bits(xs, n, 1)
      for (from <- 0 to n; to <- from to n by math.max(1, n / 17)) {
        val in = xs.filter(v => v >= from && v < to)
        val clue = s"n=$n [$from, $to) xs=${xs.toSeq}"
        assert(BitSetOps.count(a, 1, from, to) == in.length, clue)
        assert(BitSetOps.highest(a, 1, from, to) == in.lastOption.getOrElse(-1), clue)
        assert(BitSetOps.lowest(a, 1, from, to) == in.headOption.getOrElse(-1), clue)
      }
    }
  }

  for (difference <- Seq(false, true)) {
    val op = if (difference) "difference" else "intersect"
    test(s"bit-set $op returns the bounded list merge's set and work (400 random cases, fresh and in place)") {
      for (_ <- 1 to 400) {
        val n = sizes(rnd.nextInt(sizes.length))
        val xs = randomSet(n); val ys = randomSet(n)
        val ub = randomBound(n); val lb = randomBound(n)
        val out = new Array[Int](n + 1); val wcL = new WorkCounter
        val len =
          if (difference) SetOps.difference(xs, 0, xs.length, ys, 0, ys.length, out, wcL, ub, lb)
          else SetOps.intersect(xs, 0, xs.length, ys, 0, ys.length, out, wcL, ub, lb)
        val a = bits(xs, n, 2); val b = bits(ys, n, 1)
        def run(o: Array[Long], oOff: Int): (Int, Long) = {
          val wc = new WorkCounter
          val m =
            if (difference) BitSetOps.difference(a, 2, xs.length, b, 1, ys.length, o, oOff, n, wc, ub, lb)
            else BitSetOps.intersect(a, 2, xs.length, b, 1, ys.length, o, oOff, n, wc, ub, lb)
          (m, wc.ops)
        }
        val clue = s"n=$n a=${xs.toSeq} b=${ys.toSeq} lb=$lb ub=$ub"
        val fresh = new Array[Long](1 + BitSetOps.words(n))
        assert(run(fresh, 1) == ((len, wcL.ops)), clue)
        assert(elems(fresh, 1, n) == out.take(len).toSeq, clue)
        assert(run(a, 2) == ((len, wcL.ops)), s"in place $clue")
        assert(elems(a, 2, n) == out.take(len).toSeq, s"in place $clue")
      }
    }
  }

  test("bit-set merges add the list merges' steps on an exact case") {
    // A = 3 5 8 13 21 34, B = 1 5 13 20 in a 40-vertex universe
    val a = bits(Array(3, 5, 8, 13, 21, 34), 40, 0); val b = bits(Array(1, 5, 13, 20), 40, 0)
    val out = new Array[Long](1); val wc = new WorkCounter
    assert(BitSetOps.intersect(a, 0, 6, b, 0, 4, out, 0, 40, wc) == 2)
    assert(elems(out, 0, 40) == Seq(5, 13) && wc.ops == 4 + 4) // A ≤ 20: 3 5 8 13; all of B
    val wcD = new WorkCounter
    assert(BitSetOps.difference(a, 0, 6, b, 0, 4, out, 0, 40, wcD) == 4)
    assert(elems(out, 0, 40) == Seq(3, 8, 21, 34) && wcD.ops == 6 + 4) // all of A; B below 34
  }
}
