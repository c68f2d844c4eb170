package perfbench

/** Every metric the benchmark reports. BENCHMARK.json lists the same names,
  * units and directions; a test keeps the two in step.
  */
final case class MetricDef(name: String, unit: String, better: String)

object MetricDefs {
  private def lo(n: String, u: String) = MetricDef(n, u, "lower")
  private def hi(n: String, u: String) = MetricDef(n, u, "higher")

  /** Reported on every workload by an untraced run. The workloads are
    * offline batch work, so their timing is throughput; op latencies are
    * per-layer metrics (their run-to-run spread on a mixed op set is too
    * wide to gate on).
    */
  val endToEnd: Seq[MetricDef] = Seq(
    lo("setup_s", "s"),
    hi("work_per_s", "1/s"),
    hi("quality", "ratio"),
  )

  val Corpora: Seq[String]       = Seq("tus", "wiki", "ecb_union", "spider", "ecb_join", "ckan")
  val Families: Seq[String]      = Seq("sketch", "value", "frozen")
  val JoinMethods: Seq[String]   = Seq("TabSketchFM", "LSHForest", "JOSIE", "EmbedJoin")
  val UnionMethods: Seq[String]  = Seq("TabSketchFM", "D3L", "SANTOS", "Starmie")
  /** Methods whose F1@10 over all 40 queries a traced `search` run reports. */
  val F1Methods: Seq[String] = Seq("TabSketchFM_join", "TabSketchFM_union") ++ JoinMethods.tail ++ UnionMethods.tail

  /** Reported on every workload by a traced run; a layer the workload does
    * not exercise reads 0.
    */
  val perLayer: Seq[MetricDef] = Seq(
    lo("op_ms.p50", "ms"), lo("op_ms.tail", "ms"), lo("join_ms.p50", "ms"), lo("union_ms.p50", "ms"),
    lo("lakebench.generate_s", "s"), hi("lakebench.tables", "count"), hi("lakebench.cells", "count"),
    lo("spark.session_s", "s"), lo("spark.jobs", "count"), lo("spark.tasks", "count"),
    lo("spark.task_busy_s", "s"), lo("spark.shuffle_write_bytes", "bytes"), hi("spark.busy_frac", "ratio"),
  ) ++ Corpora.map(c => lo(s"core.sketch_all_s.$c", "s")) ++ Corpora.map(c => hi(s"core.cells.$c", "count")) ++ Seq(
    hi("core.tables", "count"), hi("core.columns", "count"),
    hi("core.kernel_cells", "count"), lo("core.sketch_kernel_s", "s"),
    lo("core.minhash_s", "s"), hi("core.minhash_elems", "count"), lo("core.minhash_ns_per_elem", "ns"),
    lo("core.numsketch_s", "s"), lo("core.typeinfer_s", "s"),
    lo("search.embed_build_s", "s"), hi("search.columns_embedded", "count"), lo("search.parquet_bytes", "bytes"),
  ) ++ Families.map(f => lo(s"models.prepare_s.$f", "s")) ++ Families.map(f => lo(s"models.featurize_s.$f", "s")) ++ Seq(
    hi("models.pairs", "count"), hi("models.pairs_per_s", "1/s"),
    lo("nn.train_s", "s"), lo("nn.eval_s", "s"), hi("nn.trainings", "count"), hi("nn.train_rows", "count"),
    lo("nn.share_of_op", "ratio"),
  ) ++ JoinMethods.map(m => lo(s"search.join_query_ms.$m", "ms")) ++
    UnionMethods.map(m => lo(s"search.union_query_ms.$m", "ms")) ++ Seq(
    lo("search.dot_products", "count"), lo("search.candidates_scored", "count"), lo("search.corpus_embed_ms", "ms"),
  ) ++ F1Methods.map(m => hi(s"search.f1_at_10.$m", "ratio")) ++ Seq(
    lo("jvm.gc_s", "s"), lo("jvm.heap_peak_mb", "MB"),
    lo("trace.overhead_frac", "ratio"), hi("trace.spans", "count"),
  )

  def forMode(traced: Boolean): Seq[MetricDef] = if (traced) perLayer else endToEnd
}
