package repro.workload

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import WorkloadGen._

/** Workload generation (§VII-C) and Table III statistics. */
class WorkloadGenSpec extends AnyFunSuite {

  private val pool: Vector[Clause] = PredicatePool.yelp().map(_.clause)

  test("generation is deterministic in the seed") {
    val a = generate(pool, 50, 3.0, Zipfian(1.5), seed = 1)
    val b = generate(pool, 50, 3.0, Zipfian(1.5), seed = 1)
    assert(a.map(_.whereSql) === b.map(_.whereSql))
  }

  test("every query has at least one predicate") {
    val qs = generate(pool, 200, 3.0, Uniform, seed = 2)
    assert(qs.forall(_.clauses.nonEmpty))
  }

  test("expected number of predicates per query is roughly met (uniform)") {
    val qs  = generate(pool, 400, 3.0, Uniform, seed = 3)
    val avg = qs.map(_.clauses.size).sum.toDouble / qs.size
    assert(avg > 2.4 && avg < 3.6, s"avg=$avg")
  }

  test("expected number of predicates per query is roughly met (zipfian)") {
    val qs  = generate(pool, 400, 3.0, Zipfian(2.0), seed = 4)
    val avg = qs.map(_.clauses.size).sum.toDouble / qs.size
    assert(avg > 2.2 && avg < 3.8, s"avg=$avg")
  }

  test("zipfian workloads have fewer distinct predicates than uniform") {
    val zipf = generate(pool, 200, 3.0, Zipfian(1.5), seed = 5)
    val unif = generate(pool, 200, 3.0, Uniform, seed = 5)
    def distinct(qs: Seq[CiaoQuery]) = qs.flatMap(_.clauses.map(_.canonical)).distinct.size
    assert(distinct(zipf) < distinct(unif) / 2,
      s"zipf=${distinct(zipf)} uniform=${distinct(unif)}")
  }

  test("paper parameterization: Zipfian(1.5) concentrates more than Zipfian(2)") {
    // "More skewed" operationally = higher predicate overlap: fewer distinct
    // predicates carry the workload and the top predicate covers more
    // queries. (The third-moment skewness statistic is not monotone in the
    // Zipf exponent once inclusion probabilities saturate at 1.)
    val a = generate(pool, 200, 3.0, Zipfian(1.5), seed = 6)
    val b = generate(pool, 200, 3.0, Zipfian(2.0), seed = 6)
    def distinct(qs: Seq[CiaoQuery]) = qs.flatMap(_.clauses.map(_.canonical)).distinct.size
    def topCoverage(qs: Seq[CiaoQuery]) = {
      val counts = qs.flatMap(_.clauses.map(_.canonical)).groupBy(identity).map(_._2.size)
      counts.max
    }
    assert(distinct(a) < distinct(b), s"A=${distinct(a)} B=${distinct(b)}")
    assert(topCoverage(a) >= topCoverage(b))
  }

  test("skewness factor of an even distribution is 0") {
    val qs = Vector.tabulate(6)(i => CiaoQuery(Vector(pool(i))))
    assert(skewnessFactor(qs) === 0.0)
  }

  test("skewness factor grows when one predicate dominates") {
    val shared = pool.head
    val lo = Vector.tabulate(5)(i => CiaoQuery(Vector(pool(i + 1), pool(i + 10))))
    val hi = Vector.tabulate(5)(i => CiaoQuery(Vector(shared, pool(i + 1))))
    assert(skewnessFactor(hi) > skewnessFactor(lo))
  }

  test("stats reproduce the Table III columns") {
    val qs = generate(pool, 200, 3.0, Zipfian(1.5), seed = 7)
    val st = stats(qs, Zipfian(1.5))
    assert(st.nQueries === 200)
    assert(st.sumPredicates === qs.map(_.clauses.size).sum)
    assert(st.minPredicates === qs.map(_.clauses.size).min)
    assert(st.maxPredicates === qs.map(_.clauses.size).max)
    assert(st.distribution === "Zipfian(1.5)")
    assert(st.minPredicates >= 1)
  }

  test("Table III: 200-query workloads have plausible predicate sums (~600±35%)") {
    for ((label, (qs, _)) <- tableIII(pool)) {
      val st = stats(qs, Uniform)
      assert(st.sumPredicates > 390 && st.sumPredicates < 810,
        s"workload $label: ΣPreds=${st.sumPredicates}")
    }
  }

  test("Table III workload ordering: predicate overlap A > B > C") {
    val w = tableIII(pool)
    val distinct = w.view.mapValues { case (qs, _) =>
      qs.flatMap(_.clauses.map(_.canonical)).distinct.size
    }.toMap
    assert(distinct("A") < distinct("B"), s"A=${distinct("A")} B=${distinct("B")}")
    assert(distinct("B") < distinct("C"), s"B=${distinct("B")} C=${distinct("C")}")
  }

  test("Table III workloads are pinned: digest of every query's SQL") {
    val w   = tableIII(pool)
    val sql = Seq("A", "B", "C").flatMap(k => w(k)._1.map(_.whereSql)).mkString("\n")
    val sha = MessageDigest.getInstance("SHA-256").digest(sql.getBytes(StandardCharsets.UTF_8))
    assert(sha.take(8).map("%02x".format(_)).mkString === "d0208988d925afb3")
  }

  test("zipfian parameter must exceed 1") {
    intercept[IllegalArgumentException](Zipfian(1.0))
  }

  test("empty pool is rejected") {
    intercept[IllegalArgumentException](generate(Vector.empty, 10, 3.0, Uniform, 1))
  }
}
