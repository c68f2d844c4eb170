package repro.search

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class RankingSpec extends AnyFunSuite {

  /** Few distinct ids and scores, so ties are common; the special doubles
    * pin the order of signed zeros, infinities and NaN too.
    */
  private val scored: Gen[List[(String, Double)]] = Gen.listOf(Gen.zip(
    Gen.oneOf("a", "b", "c", "d", "e", "f"),
    Gen.frequency(
      6 -> Gen.oneOf(0.0, 0.25, 0.5, 1.0, -0.5),
      1 -> Gen.oneOf(-0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity),
      3 -> Gen.choose(-1.0, 1.0))))

  private def bits(xs: Seq[(String, Double)]) = xs.map { case (id, s) => (id, java.lang.Double.doubleToLongBits(s)) }

  test("topK equals sortBy((-score, id)).take(k), including k = 0 and k > n") {
    val prop = Prop.forAll(scored, Gen.choose(0, 8)) { (xs, extra) =>
      (0 to xs.size + extra).forall { k =>
        bits(Ranking.topK(xs, k)) == bits(xs.sortBy { case (id, s) => (-s, id) }.take(k))
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
