package perfbench

import java.sql.DriverManager

import org.duckdb.DuckDBConnection

import repro.core.ColumnSketch

/** Output checks that the ops run after their timed region. */
object Checks {

  /** Exact counts of one column, computed by DuckDB (the repo's oracle
    * engine) from the raw cells: rows, null-or-blank cells, and distinct
    * non-blank values.
    */
  final class DuckCounts {
    Class.forName("org.duckdb.DuckDBDriver")
    private val conn = DriverManager.getConnection("jdbc:duckdb:").unwrap(classOf[DuckDBConnection])

    def apply(values: Seq[String]): (Long, Long, Long) = {
      val st = conn.createStatement()
      st.execute("CREATE OR REPLACE TABLE col (v VARCHAR)")
      val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "col")
      values.foreach { v => app.beginRow(); app.append(v); app.endRow() }
      app.close()
      // Blank = empty after stripping the characters String.trim strips.
      val rs = st.executeQuery(
        """SELECT count(*),
          |       count(*) FILTER (WHERE v IS NULL OR regexp_replace(v, '[\x00-\x20]', '', 'g') = ''),
          |       count(DISTINCT v) FILTER (WHERE v IS NOT NULL AND regexp_replace(v, '[\x00-\x20]', '', 'g') <> '')
          |FROM col""".stripMargin)
      rs.next()
      val out = (rs.getLong(1), rs.getLong(2), rs.getLong(3))
      st.close()
      out
    }

    def close(): Unit = conn.close()
  }

  def counts(c: ColumnSketch, exact: (Long, Long, Long)): Option[String] = {
    val got = (c.rowCount, c.nullCount, c.distinctCount)
    if (got == exact) None else Some(s"column ${c.name}: sketch (rows, nulls, distinct) $got, DuckDB $exact")
  }

  def exactJaccard(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty || b.isEmpty) 0.0 else a.intersect(b).size.toDouble / a.union(b).size

  /** P(X = x) for x = 0..k of X ~ Binomial(k, j), 0 < j < 1. */
  def binomialPmf(k: Int, j: Double): Array[Double] = {
    require(j > 0 && j < 1, s"binomial probability must be in (0, 1), got $j")
    val logs = Array.ofDim[Double](k + 1)
    logs(0) = k * math.log1p(-j)
    for (x <- 0 until k) logs(x + 1) = logs(x) + math.log((k - x).toDouble / (x + 1)) + math.log(j) - math.log1p(-j)
    logs.map(math.exp)
  }

  /** Expected |estimate - j| of a k-slot MinHash, whose estimate of a
    * Jaccard j is Binomial(k, j) / k.
    */
  def binomialMad(j: Double, k: Int): Double =
    binomialPmf(k, j).iterator.zipWithIndex.map { case (p, x) => p * math.abs(x.toDouble / k - j) }.sum

  /** Whether a k-slot MinHash estimate of Jaccard j is plausible: an
    * estimate at least as far from j has probability at least 1e-9 under
    * Binomial(k, j) / k.
    */
  def withinBinomial(est: Double, j: Double, k: Int): Boolean = {
    val dist = math.abs(est - j) - 1e-12
    binomialPmf(k, j).iterator.zipWithIndex.collect { case (p, x) if math.abs(x.toDouble / k - j) >= dist => p }.sum >= 1e-9
  }

  /** Top-k ids by descending score, ties broken by id. */
  def topK(scores: Iterable[(String, Double)], k: Int): Seq[String] =
    scores.toSeq.sortBy { case (id, s) => (-s, id) }.take(k).map(_._1)

  /** Every id distinct, none the query, at most (or exactly) k of them. */
  def resultShape(ids: Seq[String], query: String, k: Int, exact: Boolean): Option[String] =
    if (ids.distinct.size != ids.size) Some(s"duplicate ids in $ids")
    else if (ids.contains(query)) Some(s"query $query in its own result")
    else if (ids.size > k || (exact && ids.size != k)) Some(s"${ids.size} results, want ${if (exact) "" else "at most "}$k")
    else None
}
