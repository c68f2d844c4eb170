package repro.search

import java.lang.ref.WeakReference

import repro.nn.RandomProjection

/** The ranking every search method ends with: candidates by score, highest
  * first, ties broken by id.
  */
private[search] object Ranking {

  /** The order of `sortBy { case (id, s) => (-s, id) }`, without building a
    * key tuple per comparison.
    */
  private val byScoreThenId: Ordering[(String, Double)] = new Ordering[(String, Double)] {
    def compare(x: (String, Double), y: (String, Double)): Int = {
      val c = java.lang.Double.compare(-x._2, -y._2)
      if (c != 0) c else x._1.compareTo(y._1)
    }
  }

  /** The k best (id, score) pairs, best first. */
  def topK(scored: Iterable[(String, Double)], k: Int): Seq[(String, Double)] =
    scored.toSeq.sorted(byScoreThenId).take(k)
}

/** Dense embeddings grouped by table: the corpus side of the embedding
  * searches. A table's score for a query is the highest dot product between
  * a query embedding and any of the table's embeddings.
  *
  * @param ids   table ids, sorted
  * @param start rows of table `t` are `start(t) until start(t + 1)`
  * @param cols  column index of each row
  * @param rows  the embeddings, row after row, `dim` values each
  */
private[search] final class EmbeddingIndex private (
    ids: Array[String], start: Array[Int], cols: Array[Int], dim: Int, rows: Array[Double]) {

  private val tableOf: Map[String, Int] = ids.indices.map(t => ids(t) -> t).toMap

  /** The k other tables that score highest against the embeddings of the
    * query table's columns `qCols`; None when the index holds none of them.
    */
  def topK(table: String, qCols: Int => Boolean, k: Int): Option[Seq[String]] =
    tableOf.get(table).flatMap { qt =>
      val qs = (start(qt) until start(qt + 1)).filter(r => qCols(cols(r))).map(r => rows.slice(r * dim, (r + 1) * dim))
      if (qs.isEmpty) None
      else Some(Ranking.topK(ids.indices.iterator.filter(_ != qt).map(t => ids(t) -> maxDot(qs, t)).toSeq, k).map(_._1))
    }

  private def maxDot(qs: IndexedSeq[Array[Double]], t: Int): Double = {
    var best = Double.NegativeInfinity
    var r = start(t)
    while (r < start(t + 1)) {
      var q = 0
      while (q < qs.length) { best = math.max(best, RandomProjection.dot(qs(q), rows, r * dim)); q += 1 }
      r += 1
    }
    best
  }
}

private[search] object EmbeddingIndex {

  /** Index (table id, column index, embedding) entries; every embedding has
    * the same length.
    */
  def apply(entries: Iterable[(String, Int, Array[Double])]): EmbeddingIndex = {
    val byTable = entries.toSeq.groupBy(_._1).toArray.sortBy(_._1)
    val start   = byTable.scanLeft(0)(_ + _._2.size)
    val flat    = byTable.flatMap(_._2)
    val dim     = flat.headOption.fold(0)(_._3.length)
    require(flat.forall(_._3.length == dim), "embeddings of differing lengths")
    new EmbeddingIndex(byTable.map(_._1), start, flat.map(_._2), dim, flat.flatMap(_._3))
  }
}

/** The corpus side of one search method, built on its first call and reused
  * while the method is called with the same corpus objects. It holds one
  * build: a call whose corpus inputs are not all the same objects (`eq`) as
  * the last build's, or whose `params` differ (`==`), builds again. The
  * inputs are held weakly, so the memo never keeps an old corpus alive; a
  * build holds only what scoring needs.
  */
private[search] final class BuildMemo[B] {
  private var inputs: Seq[WeakReference[AnyRef]] = Nil
  private var params: Any                        = None
  private var built: Option[B]                   = None

  def apply(corpus: AnyRef*)(build: => B): B = withParams(corpus, None)(build)

  def withParams(corpus: Seq[AnyRef], params: Any)(build: => B): B = synchronized {
    val hit = built.isDefined && this.params == params && inputs.size == corpus.size &&
      inputs.lazyZip(corpus).forall((w, c) => w.get eq c)
    if (!hit) {
      built = None
      val b = build
      inputs = corpus.map(new WeakReference(_))
      this.params = params
      built = Some(b)
    }
    built.get
  }
}
