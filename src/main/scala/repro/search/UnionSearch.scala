package repro.search

import repro.core.{ColumnSketch, MinHash, TableSketch, Tokenizer}
import repro.lake.LakeTable

/** Union search (§6.3.2, Fig. 9–10): given a query table, retrieve
  * unionable data-lake tables. Ranking methods:
  *
  *  - TabSketchFM: cosine over table embeddings (sketches + values).
  *  - D3L-lite: mean of five per-column evidence scores (value overlap,
  *    header similarity, token overlap, numeric-distribution similarity,
  *    format/width similarity) — Bogatu et al.'s five indexes.
  *  - SANTOS-lite: header-and-value semantic agreement per aligned column.
  *  - Starmie-lite: greedy bipartite matching over per-column value
  *    embeddings (contextualized-column stand-in).
  *
  * As in [[JoinSearch]], each method builds its corpus side once per corpus
  * and ranks through one top-k: score descending, ties by table id.
  */
object UnionSearch {

  private val tableIndex = new BuildMemo[EmbeddingIndex]

  def searchEmbeddings(sketches: Map[String, TableSketch], tables: Map[String, LakeTable],
                       queries: Seq[String], k: Int): Map[String, Seq[String]] = {
    val index = tableIndex(sketches, tables)(EmbeddingIndex(repro.models.Parallel.map(tables.keys.toSeq)(id =>
      (id, 0, Embeddings.table(sketches(id), tables(id))))))
    queries.flatMap(q => index.topK(q, _ == 0, k).map(q -> _)).toMap
  }

  /** A column with its header tokens, tokenized once per corpus. */
  private final case class Col(sketch: ColumnSketch, header: Set[String])

  private val columns = new BuildMemo[Map[String, IndexedSeq[Col]]]

  /** Rank by the mean, over the query's columns, of each column's best
    * `colScore` against the candidate's columns.
    */
  private def alignedSearch(sketches: Map[String, TableSketch], queries: Seq[String], k: Int)
                           (colScore: (Col, Col) => Double): Map[String, Seq[String]] = {
    val cols = columns(sketches)(sketches.view.mapValues(_.columns.map(c =>
      Col(c, Tokenizer.tokenize(c.name).toSet)).toIndexedSeq).toMap)
    def tableScore(a: IndexedSeq[Col], b: IndexedSeq[Col]): Double =
      if (a.isEmpty || b.isEmpty) 0.0
      else {
        var sum = 0.0
        a.foreach { ca =>
          var best = Double.NegativeInfinity
          b.foreach(cb => best = math.max(best, colScore(ca, cb)))
          sum += best
        }
        sum / a.size
      }
    queries.map { q =>
      q -> Ranking.topK(cols.iterator.filter(_._1 != q).map { case (c, cc) => c -> tableScore(cols(q), cc) }.toSeq, k)
        .map(_._1)
    }.toMap
  }

  private def tokenJaccard(a: ColumnSketch, b: ColumnSketch): Double =
    if (a.tokenMinHash.nonEmpty && b.tokenMinHash.nonEmpty) MinHash.jaccard(a.tokenMinHash, b.tokenMinHash) else 0.0

  /** D3L-lite: average of five evidence types over best-aligned columns. */
  def searchD3L(sketches: Map[String, TableSketch], queries: Seq[String], k: Int): Map[String, Seq[String]] =
    alignedSearch(sketches, queries, k) { (ca, cb) =>
      val (a, b)  = (ca.sketch, cb.sketch)
      val value   = MinHash.jaccard(a.valueMinHash, b.valueMinHash)
      val header  = Tokenizer.jaccard(ca.header, cb.header)
      val token   = tokenJaccard(a, b)
      val numeric =
        if (a.isNumeric && b.isNumeric) {
          val d = math.abs(a.numeric(0) - b.numeric(0)) /
            math.max(math.abs(a.numeric(0)), math.max(math.abs(b.numeric(0)), 1e-9))
          math.max(0.0, 1.0 - math.min(1.0, d))
        } else 0.0
      val format = 1.0 - math.min(1.0, math.abs(a.avgWidth - b.avgWidth) /
        math.max(1.0, math.max(a.avgWidth, b.avgWidth)))
      (value + header + token + numeric + format) / 5.0
    }

  /** SANTOS-lite: columns agree when header tokens AND value/token
    * evidence agree (relationship-preserving semantic match).
    */
  def searchSantos(sketches: Map[String, TableSketch], queries: Seq[String], k: Int): Map[String, Seq[String]] =
    alignedSearch(sketches, queries, k) { (ca, cb) =>
      val header = Tokenizer.jaccard(ca.header, cb.header)
      val value  = math.max(MinHash.jaccard(ca.sketch.valueMinHash, cb.sketch.valueMinHash), tokenJaccard(ca.sketch, cb.sketch))
      header * (0.3 + 0.7 * value)
    }

  private val valueEmbeddings = new BuildMemo[Map[String, IndexedSeq[Array[Double]]]]

  /** Starmie-lite: greedy maximum bipartite matching on per-column value
    * embeddings; table score = mean matched cosine scaled by coverage.
    */
  def searchStarmie(tables: Map[String, LakeTable], queries: Seq[String], k: Int): Map[String, Seq[String]] = {
    val embs = valueEmbeddings(tables)(repro.models.Parallel.map(tables.toSeq) { case (id, t) =>
      id -> t.columnNames.indices.map { i =>
        Embeddings.valueEmbedder.embed(
          Tokenizer.tokenize(t.columnNames(i)) ++
          t.column(i).filter(_ != null).take(60).flatMap(Tokenizer.tokenize))
      }
    }.toMap)
    def tableScore(a: IndexedSeq[Array[Double]], b: IndexedSeq[Array[Double]]): Double = {
      val nb    = b.size
      val score = Array.tabulate(a.size * nb)(e => Embeddings.cosine(a(e / nb), b(e % nb)))
      val usedA = new Array[Boolean](a.size)
      val usedB = new Array[Boolean](nb)
      var total = 0.0
      // Edges by score, highest first; the stable sort keeps (i, j) order among ties.
      score.indices.sortBy(e => -score(e)).foreach { e =>
        val (i, j, s) = (e / nb, e % nb, score(e))
        if (!usedA(i) && !usedB(j) && s > 0.3) { usedA(i) = true; usedB(j) = true; total += s }
      }
      total / math.max(a.size, 1)
    }
    queries.map { q =>
      q -> Ranking.topK(embs.iterator.filter(_._1 != q).map { case (c, e) => c -> tableScore(embs(q), e) }.toSeq, k)
        .map(_._1)
    }.toMap
  }
}
