package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even sample counts, in any order") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("quartiles match Python's statistics.quantiles(n=4)") {
    // Values printed by CPython's statistics.quantiles(xs, n=4).
    assert(Stats.quartiles(Seq(1.0, 2, 3, 4)) == ((1.25, 2.5, 3.75)))
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25)))
    assert(Stats.quartiles(Seq(5.0, 1, 4, 2, 3)) == ((1.5, 3.0, 4.5)))
    assert(Stats.quartiles(Seq(3.0, 1.0)) == ((0.5, 2.0, 3.5)))
  }

  test("tail needs more than ten samples") {
    assert(Stats.tail((1 to 10).map(_.toDouble)).isEmpty)
    val t = Stats.tail((1 to 11).map(_.toDouble)).get
    assert(t.value == 1.0 && t.count == 11)
    assert(math.abs(t.percentile - 100.0 / 11) < 1e-9)
  }

  test("tail is the highest percentile with at least ten samples beyond it") {
    val xs = scala.util.Random.shuffle((1 to 100).map(_.toDouble))
    val t  = Stats.tail(xs).get
    assert(t.value == 90.0)
    assert(t.percentile == 90.0)
    assert(t.count == 100)
    assert(xs.count(_ > t.value) == 10)
  }

  test("tail with ties still leaves ten samples at or beyond it by rank") {
    val xs = Seq.fill(15)(5.0) ++ Seq.fill(10)(9.0)
    val t  = Stats.tail(xs).get
    assert(t.value == 5.0)
    assert(xs.count(_ > t.value) >= 10)
  }
}
