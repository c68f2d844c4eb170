package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** One operation of a workload: `action` is the timed region; `check` runs
  * after it, untimed, and returns an error message when the output is wrong.
  * `work` is what the op contributes to `work_per_s` (cells, pairs, queries).
  */
final case class Op[T](kind: String, work: Long, action: () => T, check: T => Option[String])

final case class Sample(opId: Long, kind: String, ms: Double, ok: Boolean, work: Long, cycle: Int)

/** The samples of the measured cycles; warm-up cycles count only toward
  * `attempted` and `failed`.
  */
final case class LoopResult(samples: Seq[Sample], cycles: Int, wallS: Double, warmupAttempted: Int, warmupFailed: Int) {
  def ok: Seq[Sample]     = samples.filter(_.ok)
  def attempted: Int      = samples.size + warmupAttempted
  def failed: Int         = samples.count(!_.ok) + warmupFailed
  def opMs: Seq[Double]   = ok.map(_.ms)
  def ms(kind: String): Seq[Double] = ok.filter(_.kind == kind).map(_.ms)

  /** Work of successful ops per second of op time (checks excluded). */
  def workPerS: Double = ok.map(_.work).sum / (ok.map(_.ms).sum / 1e3)
}

object LoopResult {
  def merge(rs: Seq[LoopResult]): LoopResult =
    LoopResult(rs.flatMap(_.samples), rs.map(_.cycles).sum, rs.map(_.wallS).sum,
               rs.map(_.warmupAttempted).sum, rs.map(_.warmupFailed).sum)
}

/** A closed loop with one client: each op starts when the previous op and
  * its check have ended.
  */
object Harness {

  /** Runs `warmup` whole cycles of ops, then measured cycles until `seconds`
    * have passed and at least `minCycles` have run. Workloads size their
    * cycles so that `minCycles` cycles outlast the run time: the sample
    * count, and with it the tail percentile, then does not change from run
    * to run.
    */
  def loop(tracer: Tracer, seconds: Double, warmup: Int, minCycles: Int, firstOpId: Long)(
      cycleOps: Int => Seq[Op[_]]): LoopResult = {
    val warm = ArrayBuffer.empty[Sample]
    var opId = firstOpId
    for (c <- 0 until warmup) cycleOps(c).foreach { op =>
      warm += exec(tracer, op, opId, c)
      opId += 1
    }
    val samples = ArrayBuffer.empty[Sample]
    val t0      = System.nanoTime()
    var cycle   = 0
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (cycle < minCycles || elapsed < seconds) {
      cycleOps(warmup + cycle).foreach { op =>
        samples += exec(tracer, op, opId, cycle)
        opId += 1
      }
      cycle += 1
    }
    LoopResult(samples.toSeq, cycle, elapsed, warm.size, warm.count(!_.ok))
  }

  private var reported = 0

  private def exec[T](tracer: Tracer, op: Op[T], opId: Long, cycle: Int): Sample = {
    tracer.opId = opId
    val start = System.nanoTime()
    val out =
      try Right(tracer.span(s"op.${op.kind}")(op.action()))
      catch { case NonFatal(e) => Left(e) }
    val ms = (System.nanoTime() - start) / 1e6
    val error = out match {
      case Right(v) => try op.check(v) catch { case NonFatal(e) => Some(s"check threw $e") }
      case Left(e)  => Some(s"op threw $e")
    }
    tracer.opId = -1
    error.foreach { msg =>
      if (reported < 20) Console.err.println(s"[perfbench] FAILED op $opId (${op.kind}): $msg")
      reported += 1
    }
    Sample(opId, op.kind, ms, error.isEmpty, op.work, cycle)
  }

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}

object Session {

  /** Local Spark with one core per processor and no UI. Shuffle partitions
    * and the broadcast setting match the repo's test session. Spark's
    * scratch space is `java.io.tmpdir`, which the launcher points into the
    * checkout.
    */
  def start(workDir: java.nio.file.Path): SparkSession =
    SparkSession.builder
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.warehouse.dir", workDir.resolve("warehouse").toString)
      .getOrCreate()

  val ShufflePartitions = 64

  def cores: Int = Runtime.getRuntime.availableProcessors()

  def master: String = s"local[$cores]"
}
