package repro.cost

/** Converts measured work metrics into simulated device seconds.
  *
  * The *work* side of every number is measured by the engines (set-op
  * element steps, search-tree level sizes, materialized rows); only the
  * *throughput* side is modeled. Constants are anchored to the paper's own
  * ablation (§8.4): two-level parallelism 3.1×, SIMD-aware primitives
  * 1.7×, warp execution efficiency 40% (Pangolin) vs ~90% (G²Miner,
  * Fig. 12), GPU ≈ 15× a 56-core CPU at equal work (§8.2, GraphZero runs
  * the identical search plan), Peregrine's generic-engine overhead (its
  * gap to GraphZero on identical workloads), and PBE's cross-partition
  * communication.
  */
object CostModel {

  /** A simulated device. `elemOpsPerSec` is effective sorted-set element
    * throughput at full efficiency; `memBwBytesPerSec` prices materialized
    * subgraph lists (in our-scale rows); `memBudgetBytes` triggers OoM and
    * is compared against *paper-scale* footprints (see [[OomModel]]).
    */
  final case class Device(
      name: String,
      elemOpsPerSec: Double,
      memBwBytesPerSec: Double,
      memBudgetBytes: Long,
  )

  /** V100-sim: throughput anchored so that G²Miner ≈ 15× CPU at equal
    * work; 32 GB device memory (paper hardware).
    */
  val V100: Device = Device("V100-sim", 60e9, 900e9, 32L * 1000 * 1000 * 1000)

  /** 56-core Xeon: 56 cores × ~70M merge-elems/s each; 190 GB host RAM. */
  val CPU56: Device = Device("56-core-CPU-sim", 4e9, 100e9, 190L * 1000 * 1000 * 1000)

  /** System efficiency profile: what fraction of the device's set-op
    * throughput the engine realizes, plus fixed per-run overheads.
    */
  final case class SystemProfile(
      name: String,
      device: Device,
      efficiency: Double,
      // bytes of subgraph-list traffic per materialized row column
      materializes: Boolean,
      commBytesFactor: Double = 0.0, // PBE: cross-partition traffic per row
      fixedOverheadSec: Double = 0.0,
  )

  /** G²Miner on GPU: warp-centric two-level parallelism + SIMD primitives
    * ⇒ ~90% warp efficiency.
    */
  val G2MinerGpu: SystemProfile = SystemProfile("G2Miner", V100, efficiency = 0.90, materializes = false)

  /** Pangolin on GPU: BFS with thread-mapped connectivity checks (40% warp
    * efficiency, Fig. 12). Its *work* is modeled separately (extend every
    * subgraph by every neighbor, then filter — see [[PangolinIsoFactor]]),
    * so the efficiency here reflects only the warp-utilization gap.
    */
  val PangolinGpu: SystemProfile = SystemProfile("Pangolin", V100, efficiency = 0.45, materializes = true)

  /** PBE on GPU: BFS over partitioned graphs, no orientation, reuse-based
    * but with cross-partition communication per materialized row.
    */
  val PbeGpu: SystemProfile = SystemProfile("PBE", V100, efficiency = 0.50, materializes = true,
    commBytesFactor = 8.0)

  /** GraphZero on 56-core CPU: identical search plans to G²Miner; the gap
    * is pure hardware throughput.
    */
  val GraphZeroCpu: SystemProfile = SystemProfile("GraphZero", CPU56, efficiency = 0.90, materializes = false)

  /** Peregrine on 56-core CPU: generic pattern-aware engine; ~2.5× slower
    * than GraphZero's generated code on identical workloads (Tables 4–7).
    */
  val PeregrineCpu: SystemProfile = SystemProfile("Peregrine", CPU56, efficiency = 0.36, materializes = false)

  /** DistGraph: distributed CPU FSM solver; pays partition communication. */
  val DistGraphCpu: SystemProfile = SystemProfile("DistGraph", CPU56, efficiency = 0.20, materializes = true,
    commBytesFactor = 16.0)

  // --- Work the baseline systems add to what the engines measure --------
  // Each constant prices a mechanism of a system that is modeled, not run.

  /** Pangolin's extend-then-filter execution checks every extended
    * candidate for isomorphism and duplicates: charged as 1.5 element steps
    * per element its whole-list scans touch.
    */
  val PangolinIsoFactor = 1.5

  /** PBE's graph partitioning (opt B) trades OoM for cross-partition
    * communication: each materialized intermediate row costs 16 extra
    * element steps. Opt B is modeled only through this term and
    * `PbeGpu.commBytesFactor`; no engine partitions the graph.
    */
  val PbeCommWorkPerRow = 16L

  /** 3-FSM support counting (MNI aggregation, automorphism-expanded)
    * updates one domain per pattern vertex: at most 4 for the ≤3-edge
    * patterns of Table 8.
    */
  val FsmSupportWorkPerEmbedding = 4L

  /** Least share of 3-FSM work a tighter σ keeps: the level-1 and level-2
    * extensions run whatever σ is, and the paper's Table 8 times barely
    * move across σ.
    */
  val FsmMinWorkFrac = 0.35

  /** Peregrine mines FSM pattern-at-a-time: each pattern re-explores its
    * own 1..k-1-edge prefixes instead of sharing them (≈ ×2 work).
    */
  val PeregrineFsmPatternFactor = 2.0

  /** DistGraph replicates FSM embeddings across partitions: each row is
    * materialized and communicated 4 times.
    */
  val DistGraphRowFactor = 4L

  /** DistGraph's fixed distributed start-up, growing with √|V|; calibrated
    * so that it dominates small graphs, as in the paper's Mico column
    * (Table 8: DistGraph 56 s against Peregrine's 4.4 s).
    */
  def distGraphStartupSec(n: Int): Double = 1.2e-4 * math.sqrt(n.toDouble)

  /** Kernel fission (opt I), credited, not run: the three triangle-rooted
    * 4-motif kernels share one triangle listing, saving two.
    */
  val FissionSavedTriangleListings = 2L

  /** Resident warps simulated per device; sets the chunk size of the
    * chunked round-robin multi-GPU scheduler (§7.1).
    */
  val WarpsPerDevice = 512

  /** One workload's measured footprint. */
  final case class Workload(
      setOpWork: Long,          // element steps actually measured
      materializedRows: Long,   // Σ subgraph-list rows (BFS systems)
      peakRowBytes: Long,       // max level rows × row width (OoM check)
      commRows: Long = 0L,      // rows crossing partitions (PBE/DistGraph)
  )

  final case class Sim(seconds: Option[Double]) {
    def isOoM: Boolean = seconds.isEmpty
    def render: String = seconds.map(s => f"$s%.4g").getOrElse("OoM")
  }

  def simulate(w: Workload, sys: SystemProfile): Sim = {
    if (sys.materializes && w.peakRowBytes > sys.device.memBudgetBytes) return Sim(None)
    var t = w.setOpWork / (sys.device.elemOpsPerSec * sys.efficiency)
    if (sys.materializes)
      t += 2.0 * w.materializedRows * 8.0 / sys.device.memBwBytesPerSec // write + read
    if (sys.commBytesFactor > 0)
      t += w.commRows * sys.commBytesFactor / sys.device.memBwBytesPerSec
    Sim(Some(t + sys.fixedOverheadSec))
  }

  /** Total materialized rows across BFS levels (our scale) — the memory
    * *traffic* term of the time model. Level 0 is the vertex set; lists
    * start at level 1.
    */
  def bfsRows(levelNodes: Array[Long]): Long =
    (1 until levelNodes.length).map(levelNodes(_)).sum

  /** Paper-scale memory footprint model for BFS systems (Pangolin).
    *
    * The three terms mirror the paper's own memory story:
    *  - base: CSR + edgelist, bytes-per-edge c (halved by orientation for
    *    cliques, footnote 3);
    *  - skew chunk: BFS extension buffers are proportional to the maximum
    *    degree (wedge batches around hubs) — this is what makes Tw4 run out
    *    of memory while the larger-but-uniform Fr fits;
    *  - intermediates: materialized subgraph lists at levels 2..k-2, taken
    *    from our *measured* per-edge tree level rates and extrapolated
    *    linearly to the paper's edge count.
    */
  object OomModel {
    def pangolinBytes(paper: repro.graph.DataGraphs.PaperStats, oriented: Boolean,
                      levelNodes: Array[Long], ourEdges: Long): Double = {
      val base = (if (oriented) 6.0 else 12.0) * paper.e
      val skew = paper.maxDeg * (if (oriented) 7000.0 else 12000.0)
      val k = levelNodes.length
      val inter = (2 to k - 2).foldLeft(0.0) { (acc, i) =>
        val rate = levelNodes(i).toDouble / math.max(1L, ourEdges)
        math.max(acc, rate * paper.e * ((i + 1) * 4 + 4))
      }
      base + skew + inter
    }

    /** FSM (Table 8): level-2 extension candidates dominate and are
      * σ-independent (≈ every edge × every incident vertex's neighbors) —
      * evaluated directly from the paper's graph stats.
      */
    def fsmBytes(paper: repro.graph.DataGraphs.PaperStats, replication: Double): Double =
      replication * paper.e * (2.0 * paper.e / paper.v) * 24.0
  }
}
