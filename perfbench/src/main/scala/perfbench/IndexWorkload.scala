package perfbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{MinHash, NumericalSketch, TableSketch, TableSketcher, Tokenizer, TypeInference}
import repro.lake.LakeTable
import repro.search.JoinSearch

/** `index`: cold sketching of every distinct LakeBench corpus through
  * `TableSketcher.sketchAll`, then the join-search index over the Wiki lake
  * (`JoinSearch.embeddingsDf`). One cycle covers every corpus once.
  *
  * An op sketches one batch of tables of one corpus (at least `BatchCells`
  * cells), so a cycle has enough ops for a tail percentile; the last op of a
  * cycle builds the index from the Wiki sketches of that cycle.
  */
final class IndexWorkload(seed: Long, workDir: java.nio.file.Path) extends Workload {
  import IndexWorkload._

  val name = "index"

  private var corpora: Seq[Inputs.Corpus] = Nil
  private var batches: Seq[Batch]         = Nil
  private lazy val duck                   = new Checks.DuckCounts
  private val indexDir                    = workDir.resolve("join-index")
  /** Column pairs whose MinHash Jaccard estimate each batch's check compares with the exact Jaccard. */
  private var pairs: Map[Int, Seq[Pair]] = Map.empty
  /** Value-set pairs for `quality`, and |MinHash estimate - exact Jaccard| of each. */
  private var synthetic: Seq[(Seq[String], Seq[String], Double)] = Nil
  private var syntheticErr: Seq[Double] = Nil
  private var embedded = 0L

  def clear(): Unit = { corpora = Nil; batches = Nil }

  def setup(spark: SparkSession, tracer: Tracer): Unit = {
    corpora = tracer.span("lakebench.generate")(Inputs.corpora(seed, CkanBaseTables))
    var i = 0
    batches = corpora.flatMap { c =>
      val out = mutable.ArrayBuffer.empty[Batch]
      var cur = mutable.ArrayBuffer.empty[LakeTable]
      var cells = 0L
      def flush(): Unit = if (cur.nonEmpty) { out += Batch(c.name, i, cur.toSeq, cells); i += 1; cur = mutable.ArrayBuffer.empty; cells = 0 }
      c.tables.values.toSeq.sortBy(_.id).foreach { t =>
        cur += t
        cells += t.numRows.toLong * t.numCols
        if (cells >= BatchCells) flush()
      }
      flush()
      out.toSeq
    }
  }

  override def minCycles: Int = 2

  /** The synthetic pairs of `quality`, and the lake column pairs the batch
    * checks test: up to `PairsPerBatch` per batch, drawn from the seed, with
    * an exact Jaccard strictly between 0 and 1 (pairs with no overlap or
    * equal value sets say nothing about the estimator). A column's partner
    * is a column of the same name in another table of the batch where there
    * is one, else any column of another table.
    */
  override def prepare(spark: SparkSession, tracer: Tracer): Unit = {
    synthetic = syntheticPairs(seed)
    pairs = batches.map { b =>
      val rng    = new scala.util.Random(seed * 1000003L + b.index + 7)
      val cols   = b.tables.flatMap(t => t.columnNames.indices.map(i => (t, i))).toIndexedSeq
      val byName = cols.groupBy { case (t, i) => t.columnNames(i).toLowerCase }
      val sets   = mutable.Map.empty[(String, Int), Set[String]]
      def values(t: LakeTable, i: Int) = sets.getOrElseUpdate((t.id, i), valueSet(t, i))
      val out    = mutable.LinkedHashMap.empty[(String, Int, String, Int), Pair]
      var draws  = 0
      while (out.size < PairsPerBatch && draws < PairsPerBatch * 20 && b.tables.size > 1) {
        draws += 1
        val (ta, ia) = cols(rng.nextInt(cols.size))
        val named    = byName(ta.columnNames(ia).toLowerCase).filter(_._1.id != ta.id)
        val others   = if (named.nonEmpty) named else cols.filter(_._1.id != ta.id)
        val (tb, ib) = others(rng.nextInt(others.size))
        val key      = if (ta.id < tb.id) (ta.id, ia, tb.id, ib) else (tb.id, ib, ta.id, ia)
        if (!out.contains(key)) {
          val j = Checks.exactJaccard(values(ta, ia), values(tb, ib))
          if (j > 0 && j < 1) out(key) = Pair(key._1, key._2, key._3, key._4, j)
        }
      }
      b.index -> out.values.toSeq
    }.toMap
  }

  /** The value MinHash of `TableSketcher.sketchColumn` on every synthetic
    * pair, each estimate checked against the binomial bound of its exact
    * Jaccard.
    */
  override def referenceOps(spark: SparkSession): Seq[Op[_]] = Seq(
    Op[Seq[Double]]("minhash_accuracy", synthetic.size, () => synthetic.map { case (a, b, _) =>
      MinHash.jaccard(TableSketcher.sketchColumn("a", 0, a).valueMinHash, TableSketcher.sketchColumn("b", 0, b).valueMinHash)
    }, ests => {
      syntheticErr = ests.zip(synthetic).map { case (est, (_, _, j)) => math.abs(est - j) }
      ests.zip(synthetic).collectFirst { case (est, (_, _, j)) if !Checks.withinBinomial(est, j, TableSketcher.minhash.k) =>
        s"MinHash Jaccard $est of a synthetic pair is outside the binomial bound of the exact $j"
      }
    }))

  def lakeSize: (Long, Long) = (corpora.map(_.tables.size.toLong).sum, corpora.map(_.cells).sum)

  private def wiki: Inputs.Corpus = corpora.find(_.name == "wiki").get

  def cycle(spark: SparkSession, tracer: Tracer, c: Int): Seq[Op[_]] = {
    val wikiSketches = mutable.Map.empty[String, TableSketch]
    val sketchOps = batches.map { b =>
      Op[Array[TableSketch]]("sketch", b.cells,
        () => {
          val out = tracer.span(s"core.sketch_all.${b.corpus}")(TableSketcher.sketchAll(spark, b.tables).collect())
          if (b.corpus == "wiki") out.foreach(s => wikiSketches(s.tableId) = s)
          out
        },
        sk => checkBatch(b, sk))
    }
    val indexOp = Op[DataFrame]("index", wiki.cells,
      () => tracer.span("search.embed_build")(
        JoinSearch.embeddingsDf(spark, wikiSketches.toMap, wiki.tables, indexDir.toString)),
      df => {
        embedded = df.count()
        if (embedded == wiki.columns) None else Some(s"index has $embedded column embeddings, lake has ${wiki.columns} columns")
      })
    sketchOps :+ indexOp
  }

  /** One sketch per table; counts of two seeded columns against DuckDB; the
    * MinHash Jaccard estimate of each of the batch's pairs within the
    * binomial bound of its exact Jaccard.
    */
  private def checkBatch(b: Batch, sketches: Array[TableSketch]): Option[String] = {
    val byId = sketches.map(s => s.tableId -> s).toMap
    if (byId.size != b.tables.size || !b.tables.forall(t => byId.contains(t.id)))
      return Some(s"batch ${b.index}: ${sketches.length} sketches for ${b.tables.size} tables")
    val rng  = new scala.util.Random(seed * 1000003L + b.index)
    val cols = b.tables.flatMap(t => t.columnNames.indices.map(i => (t, i)))
    val picked = Seq.fill(2)(cols(rng.nextInt(cols.size)))
    val countErr = picked.iterator.map { case (t, i) => Checks.counts(byId(t.id).columns(i), duck(t.column(i))) }
      .collectFirst { case Some(e) => s"${label(b)}: $e" }
    if (countErr.nonEmpty) return countErr
    pairs(b.index).iterator.map { p =>
      val sa  = byId(p.tableA).columns(p.colA).valueMinHash
      (p, MinHash.jaccard(sa, byId(p.tableB).columns(p.colB).valueMinHash), sa.length)
    }.collectFirst { case (p, est, k) if !Checks.withinBinomial(est, p.exact, k) =>
      s"${label(b)}: MinHash Jaccard $est of ${p.tableA}[${p.colA}] and ${p.tableB}[${p.colB}] " +
        s"is outside the binomial bound of the exact ${p.exact}"
    }
  }

  private def label(b: Batch) = s"batch ${b.index} (${b.corpus})"

  /** MinHash accuracy relative to an ideal `IdealK`-slot MinHash, on the
    * synthetic pairs: the expected |estimate - J| of Binomial(`IdealK`, J) /
    * `IdealK`, summed over the pairs, divided by the observed sum of
    * |estimate - J|. About 1 for the sketcher's 64 slots; halving the slots
    * would make it about 0.71.
    */
  def quality(spark: SparkSession): Double =
    synthetic.map { case (_, _, j) => Checks.binomialMad(j, IdealK) }.sum / syntheticErr.sum

  def named(r: LoopResult): Seq[(String, Double, String)] = Seq(
    ("index_cells_per_s", r.workPerS, "cells/s"),
    ("minhash_mean_abs_err", syntheticErr.sum / syntheticErr.size, "ratio"),
    ("minhash_lake_pairs_checked", pairs.valuesIterator.map(_.size).sum.toDouble, "count"),
  )

  def layers(spark: SparkSession, tracer: Tracer, r: LoopResult): Map[String, Double] = {
    val perCorpus = corpora.flatMap { c =>
      Seq(s"core.sketch_all_s.${c.name}" -> Workload.perCycleS(tracer, s"core.sketch_all.${c.name}", r),
          s"core.cells.${c.name}" -> c.cells.toDouble)
    }
    perCorpus.toMap ++ Map(
      "core.tables"             -> corpora.map(_.tables.size).sum.toDouble,
      "core.columns"            -> corpora.map(_.columns).sum.toDouble,
      "search.embed_build_s"    -> Workload.perCycleS(tracer, "search.embed_build", r),
      "search.columns_embedded" -> embedded.toDouble,
      "search.parquet_bytes"    -> Workload.dirBytes(indexDir).toDouble,
    ) ++ kernelProbe(tracer)
  }

  /** Sequential `TableSketcher.sketch` calls, then the three kernels the
    * sketcher uses — `TypeInference.infer`, `NumericalSketch.of` and
    * `MinHash.signature` — on the same column sets, for the first
    * `KernelTables` tables (by id) of each corpus.
    */
  private def kernelProbe(tracer: Tracer): Map[String, Double] = {
    val sample = corpora.flatMap(_.tables.values.toSeq.sortBy(_.id).take(KernelTables))
    val mh     = TableSketcher.minhash
    var elems  = 0L
    val probeOp = -2L
    tracer.opId = probeOp
    sample.foreach(t => tracer.span("core.sketch_kernel")(TableSketcher.sketch(t)))
    sample.foreach { t =>
      t.columnNames.indices.foreach { i =>
        val values   = t.column(i)
        val tpe      = tracer.span("core.typeinfer")(TypeInference.infer(values))
        val nonNull  = values.filter(v => v != null && v.trim.nonEmpty)
        val distinct = nonNull.distinct
        if (tpe != TypeInference.StringT) {
          val nums = nonNull.flatMap(v => TypeInference.numericValue(v, tpe))
          tracer.span("core.numsketch")(NumericalSketch.of(nums))
        }
        tracer.span("core.minhash")(mh.signature(distinct))
        elems += distinct.size
        if (tpe == TypeInference.StringT) {
          val tokens = distinct.flatMap(Tokenizer.tokenize).distinct
          tracer.span("core.minhash")(mh.signature(tokens))
          elems += tokens.size
        }
      }
      val rows = t.rows.map(TableSketcher.rowString).distinct
      tracer.span("core.minhash")(mh.signature(rows))
      elems += rows.size
    }
    tracer.opId = -1
    def total(n: String) = tracer.all.filter(s => s.opId == probeOp && s.name == n).map(_.durNs).sum / 1e9
    val minhashS = total("core.minhash")
    Map(
      "core.kernel_cells"        -> sample.map(t => t.numRows.toLong * t.numCols).sum.toDouble,
      "core.sketch_kernel_s"     -> total("core.sketch_kernel"),
      "core.typeinfer_s"         -> total("core.typeinfer"),
      "core.numsketch_s"         -> total("core.numsketch"),
      "core.minhash_s"           -> minhashS,
      "core.minhash_elems"       -> elems.toDouble,
      "core.minhash_ns_per_elem" -> (if (elems == 0) 0.0 else minhashS * 1e9 / elems),
    )
  }

  override def close(): Unit = duck.close()
}

object IndexWorkload {
  val BatchCells: Long = 500000L
  val CkanBaseTables: Int = 100
  val KernelTables: Int = 250
  val PairsPerBatch: Int = 100
  /** Slots of the reference MinHash that index `quality` compares with. */
  val IdealK: Int = 64
  val SyntheticPairs: Int = 6000

  /** `SyntheticPairs` pairs of value sets (a, b, exact Jaccard) drawn from
    * the seed. Each pair has values of its own, so the MinHash errors of
    * different pairs are independent; |a ∪ b| is 10 to 100 values and the
    * Jaccard lies strictly between 0 and 1.
    */
  def syntheticPairs(seed: Long): Seq[(Seq[String], Seq[String], Double)] = {
    val rng = new scala.util.Random(seed * 31L + 5)
    (0 until SyntheticPairs).map { i =>
      val union  = 10 + rng.nextInt(91)
      val shared = 1 + rng.nextInt(union - 1)
      val onlyA  = rng.nextInt(union - shared + 1)
      val v      = (0 until union).map(n => s"$seed/$i/$n")
      val (both, rest) = v.splitAt(shared)
      (both ++ rest.take(onlyA), both ++ rest.drop(onlyA), shared.toDouble / union)
    }
  }

  final case class Batch(corpus: String, index: Int, tables: Seq[LakeTable], cells: Long)

  /** Two columns, by table id and column index, and their exact Jaccard. */
  final case class Pair(tableA: String, colA: Int, tableB: String, colB: Int, exact: Double)

  /** The value set the sketcher's value MinHash covers: distinct non-blank cells. */
  def valueSet(t: LakeTable, i: Int): Set[String] = t.column(i).iterator.filter(v => v != null && v.trim.nonEmpty).toSet
}
