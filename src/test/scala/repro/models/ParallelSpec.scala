package repro.models

import org.scalatest.funsuite.AnyFunSuite

class ParallelSpec extends AnyFunSuite {

  test("map keeps input order") {
    assert(Parallel.map(1 to 50)(_ * 2) == (1 to 50).map(_ * 2))
  }

  test("pool threads are daemons, so they never keep the JVM alive") {
    assert(Parallel.map(1 to 8)(_ => Thread.currentThread().isDaemon).forall(identity))
  }
}
