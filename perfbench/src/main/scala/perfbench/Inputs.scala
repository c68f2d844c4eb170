package perfbench

import repro.lake.LakeTable
import repro.lakebench._

/** Workload inputs, made from the workload seed only. Seed 0 passes every
  * generator its default seed, so it reproduces the `LakeBenchSuite`
  * corpora; seed `s` adds `s` to each generator seed.
  */
object Inputs {

  final case class Corpus(name: String, tables: Map[String, LakeTable]) {
    lazy val cells: Long   = tables.valuesIterator.map(t => t.numRows.toLong * t.numCols).sum
    lazy val columns: Long = tables.valuesIterator.map(_.numCols.toLong).sum
  }

  /** The six distinct table corpora behind the eight LakeBench tasks. All
    * but CKAN are full size; CKAN has `ckanBaseTables` of its 500 base
    * tables (6 lake tables each). At 500 the corpora hold about 18.7 M
    * cells; at the index workload's 100, about 5.6 M.
    */
  def corpora(seed: Long, ckanBaseTables: Int): Seq[Corpus] = {
    val wiki = WikiLake.generate(21 + seed)
    Seq(
      Corpus("tus", TusSantos.generate(11 + seed).tables),
      Corpus("wiki", wiki.lakeTables),
      Corpus("ecb_union", EcbUnion.generate(51 + seed).tables),
      Corpus("spider", SpiderOpenData.generate(71 + seed).tables),
      Corpus("ecb_join", EcbJoin.generate(61 + seed).tables),
      Corpus("ckan", CkanSubset.generate(81 + seed, ckanBaseTables).tables),
    )
  }

  /** Sizes of the eight finetuning tasks. `Full` is the `LakeBenchSuite`
    * size; `Small` keeps every task and corpus kind with fewer tables and
    * labeled pairs, so one pass over the 48-op roster takes seconds.
    */
  final case class Scale(
      wikiClasses: Int, tusPerSeed: Int, tusPairs: Int, wikiUnionPairs: Int, wikiJaccardPairs: Int,
      wikiContainmentPairs: Int, ecbUnionDatasets: Int, ecbUnionPairs: Int, spiderBaseTables: Int,
      ecbJoinDatasets: Int, ckanBaseTables: Int)

  object Scale {
    val Full: Scale  = Scale(24, 36, 2800, 4200, 1700, 2100, 26, 2100, 360, 64, 500)
    val Small: Scale = Scale(8, 6, 240, 300, 240, 240, 6, 300, 30, 16, 15)
    def named(s: String): Scale = s match {
      case "full"  => Full
      case "small" => Small
      case other   => throw new IllegalArgumentException(s"unknown scale '$other' (full|small)")
    }
  }

  /** The eight LakeBench tasks in Table 2 row order. The three Wiki tasks
    * share one table map, as in `LakeBenchSuite`.
    */
  def benchmarks(seed: Long, scale: Scale): Seq[Benchmark] = {
    val wiki = WikiLake.generate(21 + seed, nClasses = scale.wikiClasses)
    Seq(
      TusSantos.generate(11 + seed, scale.tusPerSeed, scale.tusPairs),
      WikiUnion.generate(wiki, 31 + seed, scale.wikiUnionPairs),
      EcbUnion.generate(51 + seed, scale.ecbUnionDatasets, scale.ecbUnionPairs),
      WikiJoin.generateJaccard(wiki, 41 + seed, scale.wikiJaccardPairs),
      WikiJoin.generateContainment(wiki, 43 + seed, scale.wikiContainmentPairs),
      SpiderOpenData.generate(71 + seed, scale.spiderBaseTables),
      EcbJoin.generate(61 + seed, scale.ecbJoinDatasets),
      CkanSubset.generate(81 + seed, scale.ckanBaseTables),
    )
  }
}
