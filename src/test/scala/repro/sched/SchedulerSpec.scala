package repro.sched

import org.scalatest.funsuite.AnyFunSuite

class SchedulerSpec extends AnyFunSuite {

  test("even-split produces n contiguous balanced ranges") {
    val a = Scheduler.assign(100, 4, Scheduler.EvenSplit)
    assert(a.toSeq == a.sorted.toSeq)
    assert((0 until 4).forall(d => a.count(_ == d) == 25))
  }

  test("round-robin interleaves") {
    val a = Scheduler.assign(10, 3, Scheduler.ChunkedRoundRobin(1))
    assert(a.toSeq == Seq(0, 1, 2, 0, 1, 2, 0, 1, 2, 0))
  }

  test("chunked round-robin generalizes both policies") {
    val m = 12
    val even = Scheduler.assign(m, 3, Scheduler.EvenSplit)
    val cBig = Scheduler.assign(m, 3, Scheduler.ChunkedRoundRobin(m / 3))
    assert(even.toSeq == cBig.toSeq)
  }

  test("every task is assigned to a valid device") {
    for (n <- 1 to 8; policy <- Seq(Scheduler.EvenSplit, Scheduler.ChunkedRoundRobin(1),
      Scheduler.ChunkedRoundRobin(7))) {
      val a = Scheduler.assign(123, n, policy)
      assert(a.forall(d => d >= 0 && d < n))
    }
  }

  test("chunked RR beats even-split on skewed front-loaded work") {
    // heavy tasks clustered at the front — exactly what degree-sorted
    // power-law edge lists look like
    val work = Array.tabulate(8000)(i => if (i < 400) 1000L else 1L)
    val even = Scheduler.simulate(work, 4, Scheduler.EvenSplit, 1e6)
    val chunked = Scheduler.simulate(work, 4, Scheduler.ChunkedRoundRobin(16), 1e6)
    assert(chunked.makespanSeconds < even.makespanSeconds)
  }

  test("even-split can fail to scale (paper Fig. 8)") {
    val work = Array.tabulate(8000)(i => if (i < 2000) 100L else 1L)
    val t3 = Scheduler.simulate(work, 3, Scheduler.EvenSplit, 1e6).makespanSeconds
    val t4 = Scheduler.simulate(work, 4, Scheduler.EvenSplit, 1e6).makespanSeconds
    // going from 3 to 4 GPUs barely helps (the heavy prefix still lands
    // on the first device(s))
    assert(t4 > t3 * 0.70)
  }

  test("chunked RR scales near-linearly on skewed work") {
    val rnd = new scala.util.Random(1)
    val work = Array.fill(20000)(if (rnd.nextInt(100) == 0) 5000L else (1 + rnd.nextInt(10)).toLong)
    val t1 = Scheduler.simulate(work, 1, Scheduler.ChunkedRoundRobin(32), 1e6).makespanSeconds
    val t8 = Scheduler.simulate(work, 8, Scheduler.ChunkedRoundRobin(32), 1e6).makespanSeconds
    assert(t1 / t8 > 6.0, s"speedup=${t1 / t8}")
  }

  test("per-device work sums to total work") {
    val work = Array.tabulate(1000)(i => (i % 17).toLong + 1)
    for (policy <- Seq(Scheduler.EvenSplit, Scheduler.ChunkedRoundRobin(1), Scheduler.ChunkedRoundRobin(13))) {
      val out = Scheduler.simulate(work, 5, policy, 1e6)
      assert(out.perDeviceWork.sum == work.sum)
    }
  }

  test("makespan is the max per-device time") {
    val work = Array.fill(100)(10L)
    val out = Scheduler.simulate(work, 4, Scheduler.ChunkedRoundRobin(1), 1e3)
    assert(out.makespanSeconds == out.perDeviceSeconds.max)
  }

  test("paperChunkSize clamps so every device gets multiple chunks") {
    assert(Scheduler.paperChunkSize(10, 512) == 1)
    assert(Scheduler.paperChunkSize(100000, 512) == 1024)
    assert(Scheduler.paperChunkSize(4096, 512) == 128)
  }
}
