package perfbench

import org.apache.spark.sql.SparkSession

/** A workload: inputs from the seed, a set-up, and a cycle of ops. */
trait Workload {
  def name: String

  /** Drops the inputs of the previous set-up. */
  def clear(): Unit

  /** Builds everything the ops need; timed as part of `setup_s`. */
  def setup(spark: SparkSession, tracer: Tracer): Unit

  /** Untimed work after the last set-up (check references). */
  def prepare(spark: SparkSession, tracer: Tracer): Unit = ()

  /** Ops run once before the loop, checked like the loop's ops but not
    * timed; the quality number may come from their outputs.
    */
  def referenceOps(spark: SparkSession): Seq[Op[_]] = Nil

  /** Cycles run before measuring; their ops are checked but not timed. */
  def warmupCycles: Int = 1

  /** Measured cycles every loop runs at least. */
  def minCycles: Int = 3

  /** The ops of cycle `c`. */
  def cycle(spark: SparkSession, tracer: Tracer, c: Int): Seq[Op[_]]

  /** Tables and cells of the generated inputs. */
  def lakeSize: (Long, Long)

  /** The workload's deterministic quality number. */
  def quality(spark: SparkSession): Double

  /** Metrics under the names of the benchmark's design, from a loop. */
  def named(r: LoopResult): Seq[(String, Double, String)]

  /** Layer metrics of a traced loop; may run untimed probes of its own. */
  def layers(spark: SparkSession, tracer: Tracer, r: LoopResult): Map[String, Double]

  def close(): Unit = ()
}

object Workload {
  val names: Seq[String] = Seq("index", "finetune", "search")

  def apply(name: String, seed: Long, workDir: java.nio.file.Path, scale: Inputs.Scale): Workload = name match {
    case "index"    => new IndexWorkload(seed, workDir)
    case "finetune" => new FinetuneWorkload(seed, scale)
    case "search"   => new SearchWorkload(seed, workDir)
    case other      => throw new IllegalArgumentException(s"unknown workload '$other' (${names.mkString("|")})")
  }

  /** Sum of the durations of named spans inside ops, per cycle, in seconds. */
  def perCycleS(tracer: Tracer, name: String, r: LoopResult): Double =
    tracer.all.filter(s => s.opId >= 0 && s.name == name).map(_.durNs).sum / 1e9 / r.cycles

  def medianMs(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)

  def size(tables: Iterable[repro.lake.LakeTable]): (Long, Long) =
    (tables.size.toLong, tables.iterator.map(t => t.numRows.toLong * t.numCols).sum)

  def dirBytes(dir: java.nio.file.Path): Long = {
    val s = java.nio.file.Files.walk(dir)
    try s.filter(p => java.nio.file.Files.isRegularFile(p)).mapToLong(p => java.nio.file.Files.size(p)).sum()
    finally s.close()
  }
}
