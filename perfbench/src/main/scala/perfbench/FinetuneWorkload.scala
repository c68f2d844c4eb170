package perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.lakebench.{Benchmark, BinaryTask, MultiLabelTask, RegressionTask}
import repro.models._
import repro.nn.{Metrics, Mlp}

/** `finetune`: one op is one (featurizer, task) pair of the Table 2 roster
  * (6 featurizers x 8 tasks) with training seed 0 — `Runner.featurize`, then
  * `Runner.trainEval`. Set-up warms the representation caches
  * (`PairFeaturizer.prepare` for every pair), so ops see the steady state of
  * Tables 2-4. One cycle runs the 48 pairs in an order drawn from the
  * workload seed.
  *
  * The tasks are always generated with the generators' default seeds: at
  * the reduced `Small` size, training time and test scores swing too much
  * from one generated lake to the next for run-to-run comparison.
  */
final class FinetuneWorkload(seed: Long, scale: Inputs.Scale) extends Workload {
  val name = "finetune"

  private val roster              = Baselines.table2Roster
  private var benches: Seq[Benchmark] = Nil
  /** Scores of the warm-up pass, the reference every op must match. */
  private val reference = mutable.Map.empty[(String, String), Double]

  def clear(): Unit = benches = Nil

  def setup(spark: SparkSession, tracer: Tracer): Unit = {
    benches = tracer.span("lakebench.generate")(Inputs.benchmarks(0L, scale))
    for (b <- benches; fz <- roster)
      tracer.span(s"models.prepare.${FinetuneWorkload.family(fz)}")(fz.prepare(spark, b.tables))
  }

  /** Distinct corpora only: the three Wiki tasks share one table map. */
  def lakeSize: (Long, Long) = {
    val corpora = benches.map(_.tables).foldLeft(List.empty[Map[String, repro.lake.LakeTable]]) { (acc, m) =>
      if (acc.exists(_ eq m)) acc else m :: acc
    }
    Workload.size(corpora.flatMap(_.values))
  }

  /** The warm-up pass computes the reference scores instead. */
  override def warmupCycles: Int = 0

  override def prepare(spark: SparkSession, tracer: Tracer): Unit =
    for (b <- benches; fz <- roster)
      reference((fz.name, b.name)) = Runner.trainEval(b.task, Runner.featurize(spark, fz, b), TrainSeed)

  private val TrainSeed = 0L

  def cycle(spark: SparkSession, tracer: Tracer, c: Int): Seq[Op[_]] = {
    val pairs = new scala.util.Random(seed * 7919L + c).shuffle(for (b <- benches; fz <- roster) yield (fz, b))
    pairs.map { case (fz, b) =>
      Op[Double]("finetune", b.allPairs.size.toLong,
        () => if (tracer.enabled) traced(spark, tracer, fz, b) else Runner.trainEval(b.task, Runner.featurize(spark, fz, b), TrainSeed),
        score => {
          val want = reference((fz.name, b.name))
          if (score == want || (score.isNaN && want.isNaN)) None
          else Some(s"${fz.name} on ${b.name}: score $score, warm-up pass $want")
        })
    }
  }

  /** The same op with a span around each layer call.
    *
    * The body of the `models.train_eval` span is a copy of
    * `repro.models.Runner.trainEval`, spelled out so that training and
    * evaluation get their own spans (the split is not visible from outside
    * `Runner`). It must stay in step with that method: its task mapping, its
    * `Mlp.Config` (epochs, patience) and its metric per task type. A change
    * to any of them, or to how `trainEval` predicts, desynchronises the two;
    * the op check catches a changed score but not changed work.
    */
  private def traced(spark: SparkSession, tracer: Tracer, fz: PairFeaturizer, b: Benchmark): Double = {
    val fam = FinetuneWorkload.family(fz)
    val fs  = tracer.span(s"models.featurize.$fam")(Runner.featurize(spark, fz, b))
    tracer.span("models.train_eval") {
      val task = b.task match {
        case BinaryTask         => Mlp.Binary
        case RegressionTask     => Mlp.Regression
        case MultiLabelTask(ls) => Mlp.MultiLabel(ls.size)
      }
      val cfg = Mlp.Config(seed = TrainSeed, epochs = 300, patience = 20)
      val m   = tracer.span("nn.train")(Mlp.train(task, fs.xTrain, fs.yTrain, fs.xValid, fs.yValid, cfg))
      tracer.span("nn.eval") {
        val preds = m.predictAll(fs.xTest)
        b.task match {
          case BinaryTask =>
            Metrics.weightedF1(fs.yTest.map(_(0).round.toInt).toSeq, preds.map(p => if (p(0) > 0.5) 1 else 0).toSeq)
          case RegressionTask =>
            Metrics.r2(fs.yTest.map(_(0)).toSeq, preds.map(_(0)).toSeq)
          case MultiLabelTask(_) =>
            Metrics.multiLabelWeightedF1(fs.yTest.map(_.map(_.round.toInt)).toSeq,
                                         preds.map(_.map(p => if (p > 0.5) 1 else 0)).toSeq)
        }
      }
    }
  }

  /** Mean seed-0 test metric of TabSketchFM over the eight tasks. */
  def quality(spark: SparkSession): Double =
    Metrics.mean(benches.map(b => reference((Baselines.tabSketchFm.name, b.name))))

  /** TabSketchFM's seed-0 score per task, as Table 3's "TabSketchFM (all)" column. */
  def scores: Seq[(String, Double)] = benches.map(b => b.name -> reference((Baselines.tabSketchFm.name, b.name)))

  def named(r: LoopResult): Seq[(String, Double, String)] = {
    val ms = r.opMs
    Seq(("finetune_pairs_per_s", r.workPerS, "pairs/s"), ("finetune_op_ms.p50", Workload.medianMs(ms), "ms")) ++
      Stats.tail(ms).map(t => ("finetune_op_ms.tail", t.value, "ms")).toSeq
  }

  /** `PairFeaturizer.prepare` once for every pair of the roster, outside the
    * ops (`Runner.featurize` calls it inside them), so its cost on warm
    * caches can be read apart: seconds per family for one pass over the roster.
    */
  private def prepareProbe(spark: SparkSession, tracer: Tracer): Map[String, Double] = {
    val probeOp = -2L
    tracer.opId = probeOp
    for (b <- benches; fz <- roster)
      tracer.span(s"models.prepare.${FinetuneWorkload.family(fz)}")(fz.prepare(spark, b.tables))
    tracer.opId = -1
    MetricDefs.Families.map { f =>
      s"models.prepare_s.$f" -> tracer.all.filter(s => s.opId == probeOp && s.name == s"models.prepare.$f").map(_.durNs).sum / 1e9
    }.toMap
  }

  def layers(spark: SparkSession, tracer: Tracer, r: LoopResult): Map[String, Double] = {
    def s(n: String) = Workload.perCycleS(tracer, n, r)
    val ops        = r.ok.size.toDouble / r.cycles
    val opS        = s("op.finetune")
    val featurizeS = MetricDefs.Families.map(f => s(s"models.featurize.$f")).sum
    val pairs      = benches.map(_.allPairs.size).sum.toDouble * roster.size
    prepareProbe(spark, tracer) ++ MetricDefs.Families.map(f => s"models.featurize_s.$f" -> s(s"models.featurize.$f")) ++ Map(
      "models.pairs"       -> pairs,
      "models.pairs_per_s" -> pairs / featurizeS,
      "nn.train_s"         -> s("nn.train"),
      "nn.eval_s"          -> s("nn.eval"),
      "nn.trainings"       -> ops,
      "nn.train_rows"      -> benches.map(_.train.size).sum.toDouble * roster.size,
      "nn.share_of_op"     -> s("nn.train") / opS,
    )
  }
}

object FinetuneWorkload {
  def family(fz: PairFeaturizer): String = fz match {
    case _: SketchFeaturizer     => "sketch"
    case _: ValueModelFeaturizer => "value"
    case _: FrozenFeaturizer     => "frozen"
    case other                   => other.getClass.getSimpleName
  }
}
