package repro.setops

import org.scalatest.funsuite.AnyFunSuite

class SetOpsSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(42)
  private def randomSortedSet(maxLen: Int = 40, maxVal: Int = 300): Array[Int] =
    Array.fill(rnd.nextInt(maxLen))(rnd.nextInt(maxVal)).distinct.sorted

  private def run2(a: Array[Int], b: Array[Int])(
      f: (Array[Int], Int, Int, Array[Int], Int, Int, Array[Int], WorkCounter) => Int): Array[Int] = {
    val out = new Array[Int](math.max(a.length, b.length) + 1)
    val wc = new WorkCounter
    val len = f(a, 0, a.length, b, 0, b.length, out, wc)
    out.take(len)
  }

  test("intersect matches Set semantics (200 random cases)") {
    for (_ <- 1 to 200) {
      val a = randomSortedSet(); val b = randomSortedSet()
      val got = run2(a, b)(SetOps.intersect(_, _, _, _, _, _, _, _))
      assert(got.toSeq == a.toSet.intersect(b.toSet).toSeq.sorted, s"a=${a.toSeq} b=${b.toSeq}")
    }
  }

  test("difference matches Set semantics (200 random cases)") {
    for (_ <- 1 to 200) {
      val a = randomSortedSet(); val b = randomSortedSet()
      val got = run2(a, b)(SetOps.difference(_, _, _, _, _, _, _, _))
      assert(got.toSeq == a.toSet.diff(b.toSet).toSeq.sorted, s"a=${a.toSeq} b=${b.toSeq}")
    }
  }

  test("countBelow matches filter (200 random cases)") {
    for (_ <- 1 to 200) {
      val a = randomSortedSet()
      val bound = rnd.nextInt(320) - 10
      val wc = new WorkCounter
      assert(SetOps.countBelow(a, 0, a.length, bound, wc) == a.count(_ < bound))
    }
  }

  test("countBelow is countAtMost(bound - 1) in result and steps, on random offset views (200 cases)") {
    for (_ <- 1 to 200) {
      val a = randomSortedSet()
      val off = rnd.nextInt(a.length + 1); val len = a.length - off
      val bound = rnd.nextInt(320) - 10
      val wcB = new WorkCounter; val wcA = new WorkCounter
      assert(SetOps.countBelow(a, off, len, bound, wcB) == SetOps.countAtMost(a, off, len, bound - 1, wcA))
      assert(wcB.ops == wcA.ops, s"a=${a.toSeq} off=$off bound=$bound")
    }
  }

  test("countBelow returns 0 at Int.MinValue and costs nothing on a view starting at or above the bound") {
    val a = Array(Int.MinValue, -5, 3, 8, 13, 21)
    val wc = new WorkCounter
    assert(SetOps.countBelow(a, 0, a.length, Int.MinValue, wc) == 0)
    assert(SetOps.countBelow(a, 2, 4, 3, wc) == 0)  // starts at the bound
    assert(SetOps.countBelow(a, 3, 3, 5, wc) == 0)  // starts above it
    assert(wc.ops == 0)
    assert(SetOps.countBelow(a, 0, a.length, 9, wc) == 4 && wc.ops > 0)
  }

  test("contains matches Set membership (200 random cases)") {
    for (_ <- 1 to 200) {
      val a = randomSortedSet()
      val x = rnd.nextInt(320) - 10
      val wc = new WorkCounter
      assert(SetOps.contains(a, 0, a.length, x, wc) == a.contains(x))
    }
  }

  // views shorter and longer than the 256 the step helpers tabulate
  private def shortOrLongSet(): Array[Int] = randomSortedSet(maxLen = if (rnd.nextBoolean()) 80 else 900, maxVal = 2000)

  test("atMostSteps replays the steps of countAtMost and countBelow from length and rank (300 random cases)") {
    for (_ <- 1 to 300) {
      val a = shortOrLongSet()
      val x = rnd.nextInt(2020) - 10
      val wcA = new WorkCounter; val wcB = new WorkCounter
      val r = SetOps.countAtMost(a, 0, a.length, x, wcA)
      assert(wcA.ops == SetOps.atMostSteps(a.length, r), s"a=${a.toSeq} lb=$x")
      val below = SetOps.countBelow(a, 0, a.length, x, wcB)
      assert(wcB.ops == SetOps.atMostSteps(a.length, below), s"a=${a.toSeq} bound=$x")
    }
  }

  test("containsSteps replays the steps of contains from length, rank and presence (300 random cases)") {
    for (_ <- 1 to 300) {
      val a = shortOrLongSet()
      val x = if (a.nonEmpty && rnd.nextBoolean()) a(rnd.nextInt(a.length)) else rnd.nextInt(2020) - 10
      val wc = new WorkCounter
      val in = SetOps.contains(a, 0, a.length, x, wc)
      assert(wc.ops == SetOps.containsSteps(a.length, a.count(_ < x), in), s"a=${a.toSeq} x=$x")
    }
  }

  test("offset views are honored") {
    val a = Array(1, 3, 5, 7, 9, 11)
    val b = Array(0, 5, 7, 100)
    val out = new Array[Int](6)
    val wc = new WorkCounter
    // view of a = [5,7,9]
    val len = SetOps.intersect(a, 2, 3, b, 0, b.length, out, wc)
    assert(out.take(len).toSeq == Seq(5, 7))
    assert(SetOps.countBelow(a, 2, 3, 9, wc) == 2)
    assert(SetOps.contains(a, 2, 3, 9, wc))
    assert(!SetOps.contains(a, 2, 3, 3, wc))
  }

  test("in-place chaining is safe (out eq a at offset 0)") {
    val buf = Array(2, 4, 6, 8, 10, 0, 0)
    val b = Array(4, 8, 12)
    val wc = new WorkCounter
    val len = SetOps.intersect(buf, 0, 5, b, 0, 3, buf, wc)
    assert(buf.take(len).toSeq == Seq(4, 8))
    val buf2 = Array(1, 2, 3, 4, 5)
    val len2 = SetOps.difference(buf2, 0, 5, Array(2, 4), 0, 2, buf2, wc)
    assert(buf2.take(len2).toSeq == Seq(1, 3, 5))
  }

  test("in-place chaining matches fresh-buffer results (100 random cases)") {
    for (_ <- 1 to 100) {
      val a = randomSortedSet(); val b = randomSortedSet()
      val fresh = run2(a, b)(SetOps.intersect(_, _, _, _, _, _, _, _))
      val buf = java.util.Arrays.copyOf(a, math.max(1, a.length))
      val wc = new WorkCounter
      val len = SetOps.intersect(buf, 0, a.length, b, 0, b.length, buf, wc)
      assert(buf.take(len).toSeq == fresh.toSeq)
    }
  }

  test("bounded intersect keeps only elements below ub (200 random cases)") {
    for (_ <- 1 to 200) {
      val a = randomSortedSet(); val b = randomSortedSet()
      val ub = rnd.nextInt(320) - 10
      val out = new Array[Int](math.max(a.length, b.length) + 1)
      val wcB = new WorkCounter; val wcF = new WorkCounter
      val len = SetOps.intersect(a, 0, a.length, b, 0, b.length, out, wcB, ub)
      assert(out.take(len).toSeq == a.toSet.intersect(b.toSet).filter(_ < ub).toSeq.sorted)
      SetOps.intersect(a, 0, a.length, b, 0, b.length, out, wcF)
      assert(wcB.ops <= wcF.ops) // early exit never costs more
    }
  }

  test("bounded difference keeps only elements below ub (200 random cases)") {
    for (_ <- 1 to 200) {
      val a = randomSortedSet(); val b = randomSortedSet()
      val ub = rnd.nextInt(320) - 10
      val out = new Array[Int](a.length + 1)
      val wc = new WorkCounter
      val len = SetOps.difference(a, 0, a.length, b, 0, b.length, out, wc, ub)
      assert(out.take(len).toSeq == a.toSet.diff(b.toSet).filter(_ < ub).toSeq.sorted)
    }
  }

  /** Both bounds, on a fresh buffer and in place (`out eq a`): the result
    * is the set result restricted to (lb, ub).
    */
  private def checkBounded(name: String, set: (Set[Int], Set[Int]) => Set[Int])(
      f: (Array[Int], Int, Int, Array[Int], Int, Int, Array[Int], WorkCounter, Int, Int) => Int): Unit =
    for (_ <- 1 to 200) {
      val a = randomSortedSet(); val b = randomSortedSet()
      val lb = rnd.nextInt(320) - 10; val ub = rnd.nextInt(320) - 10
      val expected = set(a.toSet, b.toSet).filter(x => lb < x && x < ub).toSeq.sorted
      val out = new Array[Int](a.length + 1)
      val len = f(a, 0, a.length, b, 0, b.length, out, new WorkCounter, ub, lb)
      assert(out.take(len).toSeq == expected, s"$name a=${a.toSeq} b=${b.toSeq} lb=$lb ub=$ub")
      val buf = java.util.Arrays.copyOf(a, math.max(1, a.length))
      val lenInPlace = f(buf, 0, a.length, b, 0, b.length, buf, new WorkCounter, ub, lb)
      assert(buf.take(lenInPlace).toSeq == expected, s"$name in place a=${a.toSeq} b=${b.toSeq} lb=$lb ub=$ub")
    }

  test("intersect with both bounds keeps (lb, ub) of A ∩ B (200 random cases, fresh and in place)") {
    checkBounded("intersect", _ intersect _)(SetOps.intersect)
  }

  test("difference with both bounds keeps (lb, ub) of A − B (200 random cases, fresh and in place)") {
    checkBounded("difference", _ diff _)(SetOps.difference)
  }

  test("countAtMost matches filter, and a view starting above lb costs nothing (200 random cases)") {
    for (_ <- 1 to 200) {
      val a = randomSortedSet()
      val lb = rnd.nextInt(320) - 10
      val wc = new WorkCounter
      assert(SetOps.countAtMost(a, 0, a.length, lb, wc) == a.count(_ <= lb))
      if (a.isEmpty || a.head > lb) assert(wc.ops == 0)
    }
    assert(SetOps.countAtMost(Array(Int.MinValue, 0), 0, 2, Int.MinValue, new WorkCounter) == 1)
    assert(SetOps.countAtMost(Array(0, Int.MaxValue), 0, 2, Int.MaxValue, new WorkCounter) == 2)
  }

  test("the prefix skipped below lb costs its search steps, not its elements") {
    val a = Array.range(0, 100)
    val searchSteps = 2 * 7 // 2 · ⌈log2 101⌉
    val wc = new WorkCounter
    val out = new Array[Int](100)
    val len = SetOps.intersect(a, 0, 100, a, 0, 100, out, wc, lb = 89)
    assert(out.take(len).toSeq == (90 until 100))
    assert(wc.ops <= searchSteps + 20) // the merge advances 10 + 10
    val wcD = new WorkCounter
    assert(SetOps.difference(a, 0, 100, a, 0, 100, out, wcD, lb = 89) == 0)
    assert(wcD.ops <= searchSteps + 20)
  }

  test("difference reports the steps it takes, on completion and early exit alike") {
    val out = new Array[Int](8)
    def work(a: Array[Int], b: Array[Int], ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Long = {
      val wc = new WorkCounter
      SetOps.difference(a, 0, a.length, b, 0, b.length, out, wc, ub, lb)
      wc.ops
    }
    assert(work(Array(1, 2, 3), Array(10, 20, 30, 40)) == 3)    // B never advances
    assert(work(Array(5, 6), Array(1, 2, 3, 4)) == 6)           // all of B is passed
    assert(work(Array(1, 3, 5, 7), Array(2, 3), ub = 5) == 3)   // early exit at 5: i = 2, j = 1
    // lb = 3: 2 + 1 search steps trim both lists, then i − i0 = 2, j − j0 = 0
    assert(work(Array(1, 3, 5, 7), Array(2, 3), lb = 3) == 5)
  }

  // ---- bitmap-probed merges ---------------------------------------------
  private def randomBound(): Int = rnd.nextInt(8) match {
    case 0 => Int.MinValue
    case 1 => Int.MaxValue
    case _ => rnd.nextInt(320) - 10
  }

  /** A random sorted set at a random offset inside a padded array. */
  private def randomView(): (Array[Int], Int, Int) = {
    val set = randomSortedSet(); val pre = rnd.nextInt(4)
    (Array.fill(pre)(rnd.nextInt(300)) ++ set ++ Array.fill(rnd.nextInt(4))(rnd.nextInt(300)), pre, set.length)
  }

  /** The probed merge returns the merge's set and adds exactly the merge's
    * work, on a fresh buffer and in place (`out eq a` at offset 0); the
    * bitmap holds A when `aStable`, else B.
    */
  private def assertProbedAgrees(difference: Boolean, a: Array[Int], aOff: Int, aLen: Int,
                                 b: Array[Int], bOff: Int, bLen: Int, ub: Int, lb: Int, aStable: Boolean): Unit = {
    def run(a: Array[Int], aOff: Int, out: Array[Int], probed: Boolean): (Seq[Int], Long) = {
      val wc = new WorkCounter
      val len =
        if (!probed) {
          if (difference) SetOps.difference(a, aOff, aLen, b, bOff, bLen, out, wc, ub, lb)
          else SetOps.intersect(a, aOff, aLen, b, bOff, bLen, out, wc, ub, lb)
        } else {
          val bits = new ListBitmap(300)
          if (aStable) bits.mark(a, aOff, aLen) else bits.mark(b, bOff, bLen)
          if (difference) SetOps.differenceProbed(a, aOff, aLen, b, bOff, bLen, bits, out, wc, ub, lb)
          else SetOps.intersectProbed(a, aOff, aLen, b, bOff, bLen, bits, out, wc, ub, lb)
        }
      (out.take(len).toSeq, wc.ops)
    }
    def fresh(probed: Boolean) = run(a, aOff, new Array[Int](math.max(aLen, bLen) + 1), probed)
    def inPlace(probed: Boolean) = {
      val buf = java.util.Arrays.copyOfRange(a, aOff, aOff + math.max(1, aLen))
      run(buf, 0, buf, probed)
    }
    val clue = s"difference=$difference a=${a.slice(aOff, aOff + aLen).toSeq} b=${b.slice(bOff, bOff + bLen).toSeq} " +
      s"lb=$lb ub=$ub aStable=$aStable"
    assert(fresh(probed = true) == fresh(probed = false), clue)
    assert(inPlace(probed = true) == inPlace(probed = false), s"in place $clue")
  }

  test("probed intersect and difference return the merge's set and work (200 random cases each)") {
    for (difference <- Seq(false, true); _ <- 1 to 200) {
      val (a, aOff, aLen) = randomView(); val (b, bOff, bLen) = randomView()
      // a difference can only probe the list it subtracts
      assertProbedAgrees(difference, a, aOff, aLen, b, bOff, bLen, randomBound(), randomBound(),
        aStable = !difference && rnd.nextBoolean())
    }
  }

  test("probed merges agree on empty inputs, ub below every element and B exhausted before A") {
    val e = Array.empty[Int]; val a = Array(3, 5, 8, 13, 21, 34); val b = Array(1, 5, 13, 20)
    for (difference <- Seq(false, true); aStable <- Seq(false, !difference).distinct) {
      def agree(x: Array[Int], y: Array[Int], ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Unit =
        assertProbedAgrees(difference, x, 0, x.length, y, 0, y.length, ub, lb, aStable)
      agree(e, b); agree(a, e); agree(e, e)
      agree(a, b, ub = 2); agree(a, b, ub = Int.MinValue) // ub below every element
      agree(a, b); agree(a, b, ub = 30, lb = 4)           // B (last 20) runs out before A
      agree(b, a); agree(a, a, lb = 13)
    }
    // the steps are the merge's: 21 ends B's passage, then A is spent
    val wc = new WorkCounter; val bits = new ListBitmap(64); bits.mark(b, 0, b.length)
    val out = new Array[Int](6)
    assert(SetOps.intersectProbed(a, 0, a.length, b, 0, b.length, bits, out, wc) == 2)
    assert(out.take(2).toSeq == Seq(5, 13) && wc.ops == 4 + 4) // A ≤ 20: 3 5 8 13; all of B
    val wcD = new WorkCounter
    assert(SetOps.differenceProbed(a, 0, a.length, b, 0, b.length, bits, out, wcD) == 4)
    assert(out.take(4).toSeq == Seq(3, 8, 21, 34) && wcD.ops == 6 + 4) // all of A; B below 34
  }

  // ---- count-only merges -------------------------------------------------
  private val countKernels = Seq("intersect", "difference", "intersectProbed/A", "intersectProbed/B",
    "differenceProbed", "differenceStable")

  /** The count-only form returns its twin's |out| and adds exactly its
    * twin's work. The bitmap holds A for "intersectProbed/A" and
    * "differenceStable" (whose twin is `difference`), else B.
    */
  private def assertCountAgrees(kernel: String, a: Array[Int], aOff: Int, aLen: Int,
                                b: Array[Int], bOff: Int, bLen: Int, ub: Int, lb: Int): Unit = {
    val bits = new ListBitmap(300)
    if (kernel == "intersectProbed/A" || kernel == "differenceStable") bits.mark(a, aOff, aLen) else bits.mark(b, bOff, bLen)
    val out = new Array[Int](math.max(aLen, bLen) + 1)
    val wcT = new WorkCounter; val wcC = new WorkCounter
    val (twin, count) = kernel match {
      case "intersect" => (SetOps.intersect(a, aOff, aLen, b, bOff, bLen, out, wcT, ub, lb),
        SetOps.intersectCount(a, aOff, aLen, b, bOff, bLen, wcC, ub, lb))
      case "difference" => (SetOps.difference(a, aOff, aLen, b, bOff, bLen, out, wcT, ub, lb),
        SetOps.differenceCount(a, aOff, aLen, b, bOff, bLen, wcC, ub, lb))
      case "intersectProbed/A" | "intersectProbed/B" => (SetOps.intersectProbed(a, aOff, aLen, b, bOff, bLen, bits, out, wcT, ub, lb),
        SetOps.intersectProbedCount(a, aOff, aLen, b, bOff, bLen, bits, wcC, ub, lb))
      case "differenceProbed" => (SetOps.differenceProbed(a, aOff, aLen, b, bOff, bLen, bits, out, wcT, ub, lb),
        SetOps.differenceProbedCount(a, aOff, aLen, b, bOff, bLen, bits, wcC, ub, lb))
      case "differenceStable" => (SetOps.difference(a, aOff, aLen, b, bOff, bLen, out, wcT, ub, lb),
        SetOps.differenceStableCount(a, aOff, aLen, b, bOff, bLen, bits, wcC, ub, lb))
    }
    val clue = s"$kernel a=${a.slice(aOff, aOff + aLen).toSeq} b=${b.slice(bOff, bOff + bLen).toSeq} lb=$lb ub=$ub"
    assert(count == twin, clue)
    assert(wcC.ops == wcT.ops, s"work: $clue")
  }

  for (kernel <- countKernels)
    test(s"count-only $kernel returns its twin's set size and work on random bounded offset views (200 cases)") {
      for (_ <- 1 to 200) {
        val (a, aOff, aLen) = randomView(); val (b, bOff, bLen) = randomView()
        assertCountAgrees(kernel, a, aOff, aLen, b, bOff, bLen, randomBound(), randomBound())
      }
    }

  test("the stable-A difference count agrees with difference on an empty A*, ub below A, B spent before aL and aL in B") {
    val a = Array(3, 5, 8, 13, 21, 34); val b = Array(1, 5, 13, 20); val e = Array.empty[Int]
    def agree(x: Array[Int], y: Array[Int], ub: Int = Int.MaxValue, lb: Int = Int.MinValue): Unit =
      assertCountAgrees("differenceStable", x, 0, x.length, y, 0, y.length, ub, lb)
    agree(e, b); agree(a, b, lb = 34); agree(a, b, ub = 14, lb = 13)  // A* empty
    agree(a, b, ub = 2); agree(a, b, ub = Int.MinValue)               // ub below every element
    agree(a, b); agree(a, b, lb = 4); agree(a, e)                      // B (last 20) spent before aL = 34
    agree(a, b, ub = 14); agree(a, b, ub = 20, lb = 2); agree(a.take(4), b) // aL = 13 ∈ B
    // A* = 3 5 8 13 and B′ < 13 = 1 5: six merge steps; 3 and 8 remain
    val bits = new ListBitmap(64); bits.mark(a, 0, 4)
    val wc = new WorkCounter
    assert(SetOps.differenceStableCount(a, 0, 4, b, 0, b.length, bits, wc) == 2 && wc.ops == 6)
  }

  test("after re-marking, the bitmap holds exactly the new list") {
    val bits = new ListBitmap(300)
    for (_ <- 1 to 100) {
      val (a, off, len) = randomView()
      bits.mark(a, off, len)
      val set = a.slice(off, off + len).toSet
      assert(bits.holds(a, off, len))
      assert((0 until 300).forall(v => bits.has(v) == set.contains(v)), s"list ${a.slice(off, off + len).toSeq}")
      assert((0 until 300).forall(v => bits.bit(v) == (if (set.contains(v)) 1 else 0)))
    }
  }

  test("work counters are populated") {
    val wc = new WorkCounter
    val out = new Array[Int](4)
    SetOps.intersect(Array(1, 2, 3), 0, 3, Array(2, 3, 4), 0, 3, out, wc)
    assert(wc.ops > 0)
  }

  test("empty inputs") {
    val wc = new WorkCounter
    val out = new Array[Int](1)
    assert(SetOps.intersect(Array.empty[Int], 0, 0, Array(1), 0, 1, out, wc) == 0)
    assert(SetOps.difference(Array.empty[Int], 0, 0, Array(1), 0, 1, out, wc) == 0)
    assert(SetOps.countBelow(Array.empty[Int], 0, 0, 5, wc) == 0)
    assert(!SetOps.contains(Array.empty[Int], 0, 0, 5, wc))
  }
}
