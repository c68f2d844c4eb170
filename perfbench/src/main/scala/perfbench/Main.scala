package perfbench

import java.nio.file.{Files, Path, Paths}

import scala.collection.immutable.ListMap

import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  * {{{
  * Main --workload index|finetune|search --seed N --seconds S --trace 0|1 --out DIR [--scale small|full]
  * }}}
  * Prints a report, then as its last line one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
  * end-to-end ones, with `--trace 1` the per-layer ones (see [[MetricDefs]]).
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path,
                        scale: Inputs.Scale) {
    /** The full-size finetune run sets up once: its set-up alone takes a minute. */
    def setups: Int = if (scale == Inputs.Scale.Full) 1 else Setups
  }

  /** Renders results and spans; Scala maps keep their order. */
  private val json = JsonMapper.builder().addModule(DefaultScalaModule).build()

  def render(v: Any): String = json.writeValueAsString(v)

  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3

  def parse(argv: Seq[String]): Args = {
    val kv = argv.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toDouble, trace,
                 Paths.get(need("out")).toAbsolutePath, Inputs.Scale.named(kv.getOrElse("scale", "small")))
    require(Workload.names.contains(a.workload), s"unknown workload ${a.workload} (${Workload.names.mkString("|")})")
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv.toSeq))
      catch {
        case e: Throwable =>
          Console.err.println(s"[perfbench] aborted: $e")
          e.printStackTrace()
          2
      }
    // Exit explicitly: repro.models.Parallel's non-daemon pool would keep the JVM alive.
    System.exit(code)
  }

  def run(a: Args): Int = {
    val workDir = Files.createDirectories(a.out.resolve(s"work-${ProcessHandle.current().pid()}"))
    sys.addShutdownHook(deleteTree(workDir)) // also when the run is stopped by a signal
    val tracer  = new Tracer(a.trace)
    val w       = Workload(a.workload, a.seed, workDir, a.scale)
    var spark: SparkSession = null
    try {
      val setupS = (0 until a.setups).map { _ =>
        w.clear()
        if (spark != null) spark.stop()
        val t0 = System.nanoTime()
        spark = tracer.span("spark.session")(Session.start(workDir))
        w.setup(spark, tracer)
        (System.nanoTime() - t0) / 1e9
      }
      val off = new Tracer(false)
      val (reference, prepareS) = Harness.timed {
        w.prepare(spark, tracer)
        Harness.loop(off, 0, 1, 0, 0L)(_ => w.referenceOps(spark))
      }
      val untraced      = Harness.loop(off, a.seconds, w.warmupCycles, w.minCycles, reference.attempted.toLong)(
        c => w.cycle(spark, off, c))
      val quality       = w.quality(spark)
      val e2e = ListMap(
        "setup_s"    -> Stats.median(setupS),
        "work_per_s" -> untraced.workPerS,
        "quality"    -> quality,
      )
      val (loops, metrics) =
        if (!a.trace) (Seq(reference, untraced), e2e)
        else {
          val (more, m) = tracedLoop(spark, w, tracer, untraced, reference.attempted.toLong + untraced.attempted)
          (Seq(reference, untraced) ++ more, m)
        }
      val attempted = loops.map(_.attempted).sum
      val failed    = loops.map(_.failed).sum
      val correct   = failed == 0 && metrics.values.forall(v => !v.isNaN && !v.isInfinite)
      val manifest  = Manifest(a, spark)
      report(a, w, manifest, setupS, prepareS, untraced, e2e, metrics, attempted, failed, tracer)
      println(result(correct, attempted, failed, metrics, a.trace))
      0
    } finally {
      w.close()
      if (spark != null) spark.stop()
      deleteTree(workDir)
    }
  }

  /** The result line: exactly `correct`, `attempted`, `failed` and
    * `metrics`, the latter holding every metric of the mode, with its unit.
    */
  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Map[String, Double], traced: Boolean): String =
    render(ListMap(
      "correct"   -> correct,
      "attempted" -> attempted,
      "failed"    -> failed,
      "metrics"   -> ListMap(MetricDefs.forMode(traced).map(d =>
        d.name -> ListMap("value" -> metrics(d.name), "unit" -> d.unit)): _*),
    ))

  /** Per-layer metrics: `2 * minCycles` more cycles, half of them with
    * spans around every layer call, in the order traced, untraced,
    * untraced, traced, ... so that a JVM still warming up over the run
    * speeds both halves alike. `trace.overhead_frac` compares the work rates
    * of the two halves. The Spark and JVM counters run over all of them.
    */
  private def tracedLoop(spark: SparkSession, w: Workload, tracer: Tracer,
                         untraced: LoopResult, firstOpId: Long): (Seq[LoopResult], Map[String, Double]) = {
    val counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    Jvm.resetPeak()
    val gc0   = Jvm.gcMs
    val off   = new Tracer(false)
    var opId  = firstOpId
    val cycles = (0 until 2 * w.minCycles).map { c =>
      val t = if (c % 4 == 0 || c % 4 == 3) tracer else off
      val r = Harness.loop(t, 0, 0, 1, opId)(_ => w.cycle(spark, t, c))
      opId += r.attempted
      (t.enabled, r)
    }
    counters.await()
    spark.sparkContext.removeSparkListener(counters)
    val r      = LoopResult.merge(cycles.collect { case (true, x) => x })
    val rOff   = LoopResult.merge(cycles.collect { case (false, x) => x })
    val gcS    = (Jvm.gcMs - gc0) / 1e3 / cycles.size
    val heapMb = Jvm.peakHeapMb
    val setupSpan = (n: String) => {
      val xs = tracer.all.filter(s => s.opId == -1 && s.name == n).map(_.durNs / 1e9)
      if (xs.isEmpty) 0.0 else Stats.median(xs)
    }
    val (tables, cells) = w.lakeSize
    val perCycle = (x: Long) => x.toDouble / cycles.size
    val jobWallS = counters.jobWallMs.get / 1e3
    val generic = Map(
      "op_ms.p50"                 -> Workload.medianMs(untraced.opMs),
      "op_ms.tail"                -> Stats.tail(untraced.opMs).fold(0.0)(_.value),
      "join_ms.p50"               -> Workload.medianMs(untraced.ms("join.TabSketchFM")),
      "union_ms.p50"              -> Workload.medianMs(untraced.ms("union.TabSketchFM")),
      "lakebench.generate_s"      -> setupSpan("lakebench.generate"),
      "lakebench.tables"          -> tables.toDouble,
      "lakebench.cells"           -> cells.toDouble,
      "spark.session_s"           -> setupSpan("spark.session"),
      "spark.jobs"                -> perCycle(counters.jobs.get),
      "spark.tasks"               -> perCycle(counters.tasks.get),
      "spark.task_busy_s"         -> perCycle(counters.taskBusyMs.get) / 1e3,
      "spark.shuffle_write_bytes" -> perCycle(counters.shuffleWriteBytes.get),
      "spark.busy_frac"           -> (if (jobWallS == 0) 0.0 else counters.taskBusyMs.get / 1e3 / (jobWallS * Session.cores)),
      "jvm.gc_s"                  -> gcS,
      "jvm.heap_peak_mb"          -> heapMb,
      "trace.overhead_frac"       -> (1.0 - r.workPerS / rOff.workPerS),
    )
    val layers = w.layers(spark, tracer, r)
    val all = MetricDefs.perLayer.map(_.name).map(n => n -> 0.0).toMap ++ generic ++ layers ++
      Map("trace.spans" -> tracer.all.size.toDouble)
    val unknown = all.keySet -- MetricDefs.perLayer.map(_.name)
    require(unknown.isEmpty, s"metrics missing from MetricDefs: $unknown")
    (Seq(r, rOff), all)
  }

  private def report(a: Args, w: Workload, manifest: Map[String, Any], setupS: Seq[Double], prepareS: Double,
                     untraced: LoopResult,
                     e2e: Map[String, Double], metrics: Map[String, Double], attempted: Int, failed: Int,
                     tracer: Tracer): Unit = {
    val named = w.named(untraced) :+ (("failed_frac", failed.toDouble / attempted, "ratio"))
    val tail  = Stats.tail(untraced.opMs).getOrElse(Stats.Tail(Double.NaN, Double.NaN, untraced.opMs.size))
    println(s"perfbench ${a.workload} seed=${a.seed} trace=${if (a.trace) 1 else 0}: " +
      s"${untraced.attempted} ops in ${untraced.cycles} cycle(s), ${"%.1f".format(untraced.wallS)} s")
    println("  manifest " + render(manifest))
    println(f"  setup_s per set-up: ${setupS.map(s => f"$s%.3f").mkString(", ")}; untimed preparation and reference ops $prepareS%.3f s; " +
      f"JVM up ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s")
    MetricDefs.endToEnd.foreach(d => println(f"  ${d.name}%-28s ${e2e(d.name)}%14.4f ${d.unit}"))
    println(f"  ${"op_ms.p50"}%-28s ${Workload.medianMs(untraced.opMs)}%14.4f ms")
    println(f"  ${"op_ms.tail"}%-28s ${tail.value}%14.4f ms (p${tail.percentile}%.1f of ${tail.count} ops)")
    named.foreach { case (n, v, u) => println(f"  $n%-28s $v%14.4f $u") }
    w match {
      case f: FinetuneWorkload => f.scores.foreach { case (b, s) => println(f"  TabSketchFM seed-0 $b%-18s $s%.4f") }
      case _                   =>
    }
    if (a.trace) MetricDefs.perLayer.foreach(d => println(f"  ${d.name}%-36s ${metrics(d.name)}%16.4f ${d.unit}"))

    val results = Files.createDirectories(a.out.resolve("results"))
    val stem    = s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}"
    val detail = ListMap(
      "manifest"   -> manifest,
      "setup_s"    -> setupS,
      "prepare_s"  -> prepareS,
      "loop_s"     -> untraced.wallS,
      "op_ms_tail" -> ListMap("value" -> tail.value, "percentile" -> tail.percentile, "count" -> tail.count),
      "op_ms_quartiles" -> (if (untraced.opMs.size < 2) Nil else Stats.quartiles(untraced.opMs).productIterator.toSeq),
      "named"      -> ListMap(named.map { case (n, v, u) => n -> ListMap("value" -> v, "unit" -> u) }: _*),
      "metrics"    -> metrics,
      "attempted"  -> attempted,
      "failed"     -> failed,
      "ops"        -> untraced.samples.map(s => ListMap("op" -> s.opId, "kind" -> s.kind, "ms" -> s.ms, "ok" -> s.ok)),
    )
    Files.writeString(results.resolve(s"$stem.json"), render(detail) + "\n")
    if (a.trace) {
      val self = Tracer.selfTimes(tracer.all)
      val lines = tracer.all.map(s => render(ListMap("id" -> s.id, "parent" -> s.parent, "op" -> s.opId,
        "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs, "self_ns" -> self(s.id))))
      Files.writeString(results.resolve(s"spans-$stem.jsonl"), lines.mkString("", "\n", "\n"))
    }
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(q => Files.deleteIfExists(q))
      finally s.close()
    }
}

/** What a number was measured on, so results from different machines or
  * settings are not compared unnoticed.
  */
object Manifest {
  def apply(a: Main.Args, spark: SparkSession): Map[String, Any] = ListMap(
    "git_sha"            -> sys.props.getOrElse("perfbench.git_sha", "unknown"),
    "source_sha256"      -> sys.props.getOrElse("perfbench.source_sha256", "unknown"),
    "workload"           -> a.workload,
    "seed"               -> a.seed,
    "run_seconds"        -> a.seconds,
    "trace"              -> a.trace,
    "setups"             -> a.setups,
    "finetune_scale"     -> (if (a.scale == Inputs.Scale.Full) "full" else "small"),
    "nproc"              -> Runtime.getRuntime.availableProcessors(),
    "driver_heap_mb"     -> Runtime.getRuntime.maxMemory() / 1048576,
    "jvm"                -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
    "spark_version"      -> spark.version,
    "spark_master"       -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "minhash_k"          -> repro.core.MinHash.DefaultK,
  )
}
