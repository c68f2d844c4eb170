package repro.search

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.TableSketcher
import repro.lake.LakeTable
import repro.lakebench.WikiLake
import repro.nn.Metrics

class SearchSpec extends SparkSpec {

  private lazy val lake = WikiLake.generate(seed = 13, nClasses = 6, entitiesPerClass = 150,
                                            schemasPerClass = 3, tablesPerSchema = 3)
  private lazy val tables = lake.lakeTables
  private lazy val sketches =
    TableSketcher.sketchAll(spark, tables.values.toSeq).collect().map(s => s.tableId -> s).toMap

  private lazy val queries: Seq[(String, Int)] =
    lake.tables.take(8).map(t => (t.table.id, 0))

  private lazy val embDir = java.nio.file.Files.createTempDirectory("emb")
  private lazy val emb    = JoinSearch.embeddingsDf(spark, sketches, tables, embDir.toString)

  override def afterAll(): Unit = {
    org.apache.commons.io.FileUtils.deleteDirectory(embDir.toFile)
    super.afterAll()
  }

  test("column embeddings have a fixed dimension and unit norm") {
    val t = tables.values.head
    val s = sketches(t.id)
    val e = Embeddings.column(s.columns.head, t.column(0))
    assert(math.abs(math.sqrt(e.map(v => v * v).sum) - 1.0) < 1e-9)
    val e2 = Embeddings.column(s.columns.last, t.column(t.numCols - 1))
    assert(e.length == e2.length)
  }

  test("sign-block cosine approximates minhash jaccard ordering") {
    val ts = lake.tables.filter(_.classIdx == lake.tables.head.classIdx)
    if (ts.size >= 2) {
      val a = ts.head; val b = ts(1)
      val ea = Embeddings.column(sketches(a.table.id).columns.head, a.table.column(0))
      val other = lake.tables.find(_.classIdx != a.classIdx).get
      val eb = Embeddings.column(sketches(b.table.id).columns.head, b.table.column(0))
      val eo = Embeddings.column(sketches(other.table.id).columns.head, other.table.column(0))
      assert(Embeddings.cosine(ea, eb) > Embeddings.cosine(ea, eo),
        "same-class entity columns must be closer than cross-class")
    }
  }

  test("embedding NN join over parquet returns ranked joinable tables") {
    val results = JoinSearch.searchEmbeddings(spark, emb, queries.take(3), k = 5)
    assert(results.size == 3)
    results.foreach { case (q, ranked) =>
      assert(ranked.size <= 5)
      assert(!ranked.contains(q), "query must not retrieve itself")
    }
  }

  test("embedding search beats value-overlap baselines on sensible-join GT") {
    def f1(results: Map[String, Seq[String]]): Double =
      Metrics.mean(queries.map { case (q, _) =>
        Metrics.f1AtK(results.getOrElse(q, Seq.empty), JoinSearch.relevant(lake, q), 5) })
    val ours  = f1(JoinSearch.searchEmbeddings(spark, emb, queries, 5))
    val josie = f1(JoinSearch.searchJosie(tables, queries, 5))
    assert(ours > 0.2, s"ours $ours")
    assert(ours >= josie - 0.05, s"ours $ours vs josie $josie")
  }

  test("LSH candidates are value-overlap driven") {
    val res = JoinSearch.searchLsh(sketches, queries, k = 5)
    assert(res.size == queries.size)
    res.values.foreach(r => assert(r.size <= 5))
  }

  test("JOSIE-lite ranks an exact-overlap table first") {
    val res = JoinSearch.searchJosie(tables, queries.take(4), k = 3)
    res.foreach { case (q, ranked) =>
      ranked.headOption.foreach { top =>
        val qSet = tables(q).column(0).toSet
        val topOverlap = tables(top).columnNames.indices
          .map(i => tables(top).column(i).toSet.intersect(qSet).size).max
        assert(topOverlap > 0, "top JOSIE hit must overlap")
      }
    }
  }

  test("union search methods return k results and exclude the query") {
    val qs = tables.keys.take(4).toSeq
    for (res <- Seq(
      UnionSearch.searchEmbeddings(sketches, tables, qs, 5),
      UnionSearch.searchD3L(sketches, qs, 5),
      UnionSearch.searchSantos(sketches, qs, 5),
      UnionSearch.searchStarmie(tables, qs, 5))) {
      assert(res.size == 4)
      res.foreach { case (q, ranked) => assert(!ranked.contains(q) && ranked.size <= 5) }
    }
  }

  // ---- in-memory join kernel vs a naive reference ----

  private type Row = (String, Int, Array[Double])

  /** Naive TabSketchFM join search: every other table scores the max dot
    * product of any query column embedding with any of its embeddings;
    * rank by (-score, id). As the Spark crossJoin did, a query gets an
    * entry only when it has at least one answer.
    */
  private def naiveJoin(rows: Seq[Row], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    def dot(a: Array[Double], b: Array[Double]) = a.indices.foldLeft(0.0)((s, i) => s + a(i) * b(i))
    queries.groupMap(_._1)(_._2).map { case (qt, qcs) =>
      val qs = rows.filter(r => r._1 == qt && qcs.contains(r._2)).map(_._3)
      qt -> rows.filter(_._1 != qt).groupBy(_._1).toSeq
        .flatMap { case (id, rs) => (for (q <- qs; r <- rs) yield dot(q, r._3)).maxOption.map(id -> _) }
        .sortBy { case (id, s) => (-s, id) }.take(k).map(_._1)
    }.filter(_._2.nonEmpty)
  }

  private def df(rows: Seq[Row]): DataFrame = {
    import spark.implicits._
    rows.map { case (t, c, e) => JoinSearch.ColumnEmb(t, c, e) }.toDF()
  }

  /** q's column 0 ties a, b and c at 0.5; d scores 0.9; e scores -1. */
  private val tied: Seq[Row] = Seq(
    ("q", 0, Array(1.0, 0.0)), ("q", 1, Array(0.0, 1.0)),
    ("a", 0, Array(0.5, 0.5)),
    ("c", 0, Array(0.5, 1.0)),
    ("b", 0, Array(0.5, 0.0)), ("b", 1, Array(0.25, 9.0)),
    ("d", 0, Array(0.9, 0.0)),
    ("e", 0, Array(-1.0, 0.0)))

  test("join kernel breaks tied scores by table id, as the naive reference does") {
    val emb = df(tied)
    for (k <- 0 to 6) {
      val qs = Seq(("q", 0), ("a", 0), ("e", 0))
      assert(JoinSearch.searchEmbeddings(spark, emb, qs, k) == naiveJoin(tied, qs, k), s"k = $k")
    }
    assert(JoinSearch.searchEmbeddings(spark, emb, Seq(("q", 0)), 3) == Map("q" -> Seq("d", "a", "b")))
    // Asked with both of its columns, q is scored over both: b's column 1 wins.
    assert(JoinSearch.searchEmbeddings(spark, emb, Seq(("q", 0), ("q", 1)), 2) == Map("q" -> Seq("b", "c")))
  }

  test("join kernel gives no entry to a query absent from the index") {
    val res = JoinSearch.searchEmbeddings(spark, df(tied), Seq(("zzz", 0), ("q", 7), ("d", 0)), 3)
    assert(res.keySet == Set("d"))
    assert(res == naiveJoin(tied, Seq(("zzz", 0), ("q", 7), ("d", 0)), 3))
  }

  test("join kernel returns every candidate when k exceeds their number") {
    val res = JoinSearch.searchEmbeddings(spark, df(tied), Seq(("q", 0)), 50)
    assert(res == Map("q" -> Seq("d", "a", "b", "c", "e")))
  }

  test("join kernel over a one-table lake answers nothing, like the reference") {
    val one = tied.filter(_._1 == "q")
    assert(JoinSearch.searchEmbeddings(spark, df(one), Seq(("q", 0)), 5).isEmpty)
    assert(naiveJoin(one, Seq(("q", 0)), 5).isEmpty)
  }

  test("join kernel equals the naive reference on the lake's column embeddings") {
    val rows = emb.collect().toSeq.map(r => (r.getAs[String]("tableId"), r.getAs[Int]("colIdx"),
                                             r.getAs[Seq[Double]]("emb").toArray))
    val all = lake.tables.map(t => (t.table.id, 0))
    assert(JoinSearch.searchEmbeddings(spark, emb, all, 10) == naiveJoin(rows, all, 10))
  }

  // ---- corpus-side builds are reused only for the same corpus ----

  test("a repeated search reuses its build and returns identical answers") {
    val emb = df(tied)
    val qs  = Seq(("q", 0), ("b", 1))
    assert(JoinSearch.searchEmbeddings(spark, emb, qs, 4) == JoinSearch.searchEmbeddings(spark, emb, qs, 4))
    val uq = tables.keys.take(3).toSeq
    assert(UnionSearch.searchStarmie(tables, uq, 5) == UnionSearch.searchStarmie(tables, uq, 5))
    assert(JoinSearch.searchJosie(tables, queries, 5) == JoinSearch.searchJosie(tables, queries, 5))
  }

  test("a new DataFrame with changed content gets new answers, not cached ones") {
    val before = JoinSearch.searchEmbeddings(spark, df(tied), Seq(("q", 0)), 2)
    val changed = tied.map { case ("e", c, _) => ("e", c, Array(2.0, 0.0)); case r => r }
    val after = JoinSearch.searchEmbeddings(spark, df(changed), Seq(("q", 0)), 2)
    assert(before == Map("q" -> Seq("d", "a")))
    assert(after == Map("q" -> Seq("e", "d")))
  }

  test("a new corpus Map with changed content gets new answers, not cached ones") {
    def t(id: String, vals: String*) = id -> LakeTable(id, "", Seq("c"), vals.map(v => Seq(v)))
    val lake1 = Map(t("q", "x", "y", "z"), t("a", "x"), t("b", "x", "y"))
    val lake2 = lake1 + t("a", "x", "y", "z")
    assert(JoinSearch.searchJosie(lake1, Seq(("q", 0)), 5) == Map("q" -> Seq("b", "a")))
    assert(JoinSearch.searchJosie(lake2, Seq(("q", 0)), 5) == Map("q" -> Seq("a", "b")))

    val q = tables.keys.head
    for ((name, search) <- Seq[(String, Map[String, LakeTable] => Seq[String])](
           "EmbedJoin" -> (ts => JoinSearch.searchEmbedJoin(ts, Seq((q, 0)), 5)(q)),
           "Starmie"   -> (ts => UnionSearch.searchStarmie(ts, Seq(q), 5)(q)),
           "union TabSketchFM" -> (ts => UnionSearch.searchEmbeddings(sketches, ts, Seq(q), 5)(q)))) {
      val top = search(tables).head
      assert(!search(tables - top).contains(top), s"$name answered from a stale build")
    }
    for ((name, search) <- Seq[(String, Map[String, repro.core.TableSketch] => Seq[String])](
           "LSHForest" -> (ss => JoinSearch.searchLsh(ss, Seq((q, 0)), 5)(q)),
           "D3L"       -> (ss => UnionSearch.searchD3L(ss, Seq(q), 5)(q)),
           "SANTOS"    -> (ss => UnionSearch.searchSantos(ss, Seq(q), 5)(q)))) {
      val top = search(sketches).head
      assert(!search(sketches - top).contains(top), s"$name answered from a stale build")
    }
  }
}
