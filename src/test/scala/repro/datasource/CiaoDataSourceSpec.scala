package repro.datasource

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}
import repro.client.ClientFilter
import repro.core._
import repro.harness.Harness
import repro.server._
import repro.workload.JsonDatasets

/** End-to-end tests of the `format("ciao")` DataSource V2: schema
  * inference, filter pushdown, bit-vector row skipping, raw-JSON JIT
  * scanning, and result equivalence against DuckDB over the fully parsed
  * table.
  */
class CiaoDataSourceSpec extends SparkSpec {

  private def tmpDir(prefix: String): String =
    Files.createTempDirectory(prefix).toString

  /** Small yelp store, with `stars = 5` and `text LIKE %delicious%` pushed. */
  private lazy val fixture: (String, JsonDatasets.Dataset, ChunkStore.Registry) = {
    val ds  = JsonDatasets.yelp(3000, seed = 101)
    val dir = tmpDir("ciao-ds")
    val clauses = Vector(
      Clause(KeyValueMatch("stars", "5")),
      Clause(SubstringMatch("text", "delicious")),
    )
    val registry = ChunkStore.Registry(clauses.zipWithIndex.map { case (c, i) =>
      ChunkStore.RegEntry(i, c, 0.2, 0.1)
    })
    val chunks = ClientFilter.chunk(ds.lines, 500)
    val bits   = chunks.map(ClientFilter.chunkBits(_, registry.entries.map(e => e.id -> e.clause)))
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    (dir, ds, registry)
  }

  private def ciao(dir: String): DataFrame = spark.read.format("ciao").load(dir)

  /** `body` throws, with an `IllegalStateException` somewhere in its cause chain. */
  private def assertFailsLoudly(body: => Any): Unit = {
    val e = intercept[Exception](body)
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(_.isInstanceOf[IllegalStateException]), e)
  }

  /** A store of 1000 yelp rows in two chunks with `stars = 5` pushed, fully or partially loaded. */
  private def smallStore(prefix: String, full: Boolean = true): (String, JsonDatasets.Dataset) = {
    val ds  = JsonDatasets.yelp(1000, seed = 3)
    val dir = tmpDir(prefix)
    val clause   = Clause(KeyValueMatch("stars", "5"))
    val registry = ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, clause, 0.2, 0.1)))
    val chunks   = ClientFilter.chunk(ds.lines, 500)
    val bits     = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> clause)))
    if (full) PartialLoader.loadFull(dir, ds.schema, chunks, bits, registry)
    else PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    (dir, ds)
  }

  /** The fully parsed table (ground truth side for the oracle), read by
    * Spark's own JSON reader so it shares no code with the loader.
    */
  private def fullDf(ds: JsonDatasets.Dataset): DataFrame = {
    import spark.implicits._
    spark.read.schema(CiaoDataSource.sparkSchema(ds.schema)).json(ds.lines.toDS())
  }

  test("schema inference matches the store schema") {
    val (dir, ds, _) = fixture
    assert(ciao(dir).schema === CiaoDataSource.sparkSchema(ds.schema))
  }

  test("unfiltered scan returns every row (parquet + raw JIT)") {
    val (dir, ds, _) = fixture
    assert(ciao(dir).count() === ds.lines.size)
  }

  test("unfiltered scan content equals the fully parsed table (oracle)") {
    val (dir, ds, _) = fixture
    val got = ciao(dir).selectExpr("count(*) as cnt", "sum(stars) as s", "sum(useful) as u")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt, sum(CAST(stars AS BIGINT)) AS s, sum(CAST(useful AS BIGINT)) AS u FROM t",
      "t" -> fullDf(ds))
  }

  test("query with a pushed predicate returns the exact count") {
    val (dir, ds, _) = fixture
    val got      = ciao(dir).where("stars = 5").count()
    val expected = Harness.expectedCounts(ds.lines, Vector(CiaoQuery(Vector(Clause(KeyValueMatch("stars", "5")))))).head
    assert(got === expected)
  }

  test("query with a pushed LIKE predicate matches DuckDB") {
    val (dir, ds, _) = fixture
    val got = ciao(dir).where("text LIKE '%delicious%'").selectExpr("count(*) as cnt")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt FROM t WHERE text LIKE '%delicious%'",
      "t" -> fullDf(ds))
  }

  test("conjunctive query mixing pushed and unpushed predicates is exact") {
    val (dir, ds, _) = fixture
    val got = ciao(dir).where("stars = 5 AND useful = 0").selectExpr("count(*) as cnt")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt FROM t WHERE CAST(stars AS BIGINT) = 5 AND CAST(useful AS BIGINT) = 0",
      "t" -> fullDf(ds))
  }

  test("query with only unpushed predicates scans parquet + raw and is exact") {
    val (dir, ds, _) = fixture
    val got = ciao(dir).where("funny = 1").selectExpr("count(*) as cnt")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt FROM t WHERE CAST(funny AS BIGINT) = 1",
      "t" -> fullDf(ds))
  }

  test("pushed filters surface in the executed plan description") {
    val (dir, _, _) = fixture
    val df   = ciao(dir).where("stars = 5")
    val plan = df.queryExecution.executedPlan.toString
    assert(plan.contains("CiaoScan"), s"expected CiaoScan in plan:\n$plan")
  }

  test("scan with a matched filter plans only parquet partitions") {
    val (dir, _, _) = fixture
    val m        = ChunkStore.readManifest(dir)
    val scanAll  = new CiaoScan(dir, CiaoDataSource.sparkSchema(m.schema), m, Array.empty)
    val scanSkip = new CiaoScan(dir, CiaoDataSource.sparkSchema(m.schema), m, m.registry.ids.toArray)
    val allParts  = scanAll.planInputPartitions()
    val skipParts = scanSkip.planInputPartitions()
    assert(allParts.exists(_.isInstanceOf[RawChunkPartition]))
    assert(skipParts.forall(_.isInstanceOf[ParquetChunkPartition]))
    assert(skipParts.length < allParts.length)
  }

  test("row skipping reduces rows emitted by the parquet readers") {
    val (dir, _, _) = fixture
    val m = ChunkStore.readManifest(dir)
    def emitted(ids: Array[Int]): Long = {
      val scan = new CiaoScan(dir, CiaoDataSource.sparkSchema(m.schema), m, ids)
      scan.planInputPartitions().collect { case p: ParquetChunkPartition => p }.map { p =>
        val r = new ParquetChunkReader(p.copy(skipIds = ids))
        var n = 0L
        while (r.next()) n += 1
        r.close(); n
      }.sum
    }
    val noSkip   = emitted(Array.empty)
    val withSkip = emitted(Array(0))
    assert(withSkip < noSkip)
  }

  test("parquet reader over several batches emits exactly the rows whose ANDed bits are set") {
    val ds     = JsonDatasets.yelp(9000, seed = 7)
    val dir    = tmpDir("ciao-batches")
    val clause = Clause(KeyValueMatch("stars", "5"))
    val chunks = ClientFilter.chunk(ds.lines, ds.lines.size) // one file of >2 vectorized batches
    val bits   = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> clause)))
    PartialLoader.loadFull(dir, ds.schema, chunks, bits, ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, clause, 0.2, 0.1))))
    val cf       = ChunkStore.listChunks(dir).head
    val combined = DataSkipping.combinedBits(ChunkStore.readBits(cf.bits.get), Seq(0), ds.lines.size)
    val reader   = new ParquetChunkReader(ParquetChunkPartition(cf.parquet.get, ds.lines.size.toLong, cf.bits, Array(0), ds.schema))
    val types    = CiaoDataSource.sparkSchema(ds.schema).map(_.dataType)
    val emitted  = Vector.newBuilder[Seq[Any]]
    try while (reader.next()) emitted += reader.get().copy().toSeq(types) finally reader.close()
    val expected = ParquetIO.readChunk(cf.parquet.get, ds.schema).zipWithIndex
      .collect { case (r, i) if combined.get(i) => r.toSeq(types) }
    assert(emitted.result().size === combined.cardinality)
    assert(emitted.result() === expected)
  }

  test("a sidecar shorter than its parquet chunk fails the scan loudly") {
    val (dir, _) = smallStore("ciao-short-bits")
    val bitsPath = ChunkStore.listChunks(dir).head.bits.get
    ChunkStore.writeBits(bitsPath, ChunkStore.readBits(bitsPath).map { case (id, bv) =>
      id -> bv.compact(0 until bv.nBits - 10)
    })
    assertFailsLoudly(ciao(dir).where("stars = 5").count())
  }

  test("a parquet chunk with another row count than the manifest fails the scan loudly") {
    val (dir, _) = smallStore("ciao-short-parquet")
    val m        = ChunkStore.readManifest(dir)
    ChunkStore.writeManifest(dir, m.copy(chunks = m.chunks.map(c => c.copy(loadedRows = c.loadedRows + 1))))
    assertFailsLoudly(ciao(dir).count())
  }

  test("a raw chunk with another line count than the manifest fails the scan loudly") {
    val (dir, _) = smallStore("ciao-short-raw", full = false)
    val raw      = ChunkStore.listChunks(dir).flatMap(_.raw).head
    ChunkStore.writeRawLines(raw, ChunkStore.readRawLines(raw).dropRight(1))
    assertFailsLoudly(ciao(dir).count())
  }

  test("a store without a manifest fails to load") {
    val (dir, _) = smallStore("ciao-no-manifest")
    Files.delete(Paths.get(ChunkStore.manifestPath(dir)))
    assertFailsLoudly(ciao(dir))
  }

  test("the manifest is read once per load: a loaded table outlives its deletion") {
    val (dir, ds) = smallStore("ciao-manifest-once", full = false)
    val df = ciao(dir)
    Files.delete(Paths.get(ChunkStore.manifestPath(dir)))
    assert(df.count() === ds.lines.size)
    assert(df.where("stars = 5").count() ===
      Harness.expectedCounts(ds.lines, Vector(CiaoQuery(Vector(Clause(KeyValueMatch("stars", "5")))))).head)
    assertFailsLoudly(ciao(dir))
  }

  test("missing path option fails loudly") {
    intercept[Exception] { spark.read.format("ciao").load() }
  }

  test("disjunctive (IN) predicate over a pushed clause is exact") {
    val ds  = JsonDatasets.yelp(2000, seed = 55)
    val dir = tmpDir("ciao-in")
    val clause = Clause(ExactMatch("user_id", "u000"), ExactMatch("user_id", "u001"))
    val registry = ChunkStore.Registry(Vector(ChunkStore.RegEntry(0, clause, 0.01, 0.1)))
    val chunks = ClientFilter.chunk(ds.lines, 500)
    val bits   = chunks.map(ClientFilter.chunkBits(_, Seq(0 -> clause)))
    PartialLoader.loadPartial(dir, ds.schema, chunks, bits, registry)
    val got = ciao(dir).where("user_id IN ('u000','u001')").selectExpr("count(*) as cnt")
    Oracle.assertEquivalent(got,
      "SELECT count(*) AS cnt FROM t WHERE user_id IN ('u000','u001')",
      "t" -> fullDf(ds))
  }
}
