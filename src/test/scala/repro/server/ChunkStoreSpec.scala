package repro.server

import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import TableSchema._

/** Store layout, the manifest codec and sidecar IO. */
class ChunkStoreSpec extends AnyFunSuite {

  private def tmpDir(): String = Files.createTempDirectory("store").toString

  private val registry = ChunkStore.Registry(Vector(
    ChunkStore.RegEntry(0, Clause(ExactMatch("name", "Bob")), 0.05, 0.12),
    ChunkStore.RegEntry(1, Clause(SubstringMatch("text", "delicious"), KeyValueMatch("age", "10")), 0.2, 0.33),
    ChunkStore.RegEntry(2, Clause(KeyPresence("email")), 0.9, 0.07),
  ))

  private val schema = TableSchema(Vector(
    Col("name", CString), Col("age", CLong), Col("score", CDouble), Col("ok", CBool)))

  private val chunks = Vector(
    ChunkStore.ChunkEntry(0, 0L, 1L, bits = false),
    ChunkStore.ChunkEntry(1, 2L, 0L, bits = true),
    ChunkStore.ChunkEntry(2, 3L, 4L, bits = true))

  /** Write `m` as a store's manifest and read it back. */
  private def roundTrip(m: ChunkStore.Manifest): ChunkStore.Manifest = {
    val dir = tmpDir(); ChunkStore.init(dir)
    ChunkStore.writeManifest(dir, m)
    ChunkStore.readManifest(dir)
  }

  test("init creates a fresh store and wipes previous content") {
    val dir = tmpDir()
    ChunkStore.init(dir)
    Files.write(Paths.get(ChunkStore.chunksDir(dir), "junk.txt"), "x".getBytes)
    ChunkStore.writeManifest(dir, ChunkStore.Manifest(schema, registry, chunks))
    ChunkStore.init(dir)
    assert(new java.io.File(ChunkStore.chunksDir(dir)).list().isEmpty)
    assert(!Files.exists(Paths.get(ChunkStore.manifestPath(dir))))
  }

  test("registry round-trips all atom kinds, ids, sel and cost") {
    assert(roundTrip(ChunkStore.Manifest(schema, registry, chunks)).registry.entries === registry.entries)
  }

  test("registry canonical index finds clauses regardless of atom order") {
    val reordered = Clause(KeyValueMatch("age", "10"), SubstringMatch("text", "delicious"))
    assert(registry.byCanonical.contains(reordered.canonical))
  }

  test("empty registry round-trips") {
    val m = ChunkStore.Manifest(schema, ChunkStore.Registry(Vector.empty), Vector.empty)
    assert(roundTrip(m) === m)
  }

  test("schema round-trips all column types") {
    assert(roundTrip(ChunkStore.Manifest(schema, registry, chunks)).schema === schema)
  }

  test("manifest round-trips chunk ids, row counts and sidecar flags") {
    val m = ChunkStore.Manifest(schema, registry, chunks)
    assert(roundTrip(m) === m)
  }

  test("sidecar bits round-trip through files") {
    val dir = tmpDir(); ChunkStore.init(dir)
    val bits = Map(0 -> BitVec.fromBooleans(Vector(true, false, true)), 2 -> BitVec.full(70))
    val p = ChunkStore.bitsPath(dir, 0)
    ChunkStore.writeBits(p, bits)
    assert(ChunkStore.readBits(p) === bits)
  }

  test("raw lines round-trip including empty file") {
    val dir = tmpDir(); ChunkStore.init(dir)
    val p = ChunkStore.rawPath(dir, 3)
    ChunkStore.writeRawLines(p, Vector("""{"a":1}""", """{"b":2}"""))
    assert(ChunkStore.readRawLines(p) === Vector("""{"a":1}""", """{"b":2}"""))
    ChunkStore.writeRawLines(ChunkStore.rawPath(dir, 4), Vector.empty)
    assert(ChunkStore.readRawLines(ChunkStore.rawPath(dir, 4)) === Vector.empty)
  }

  test("listChunks groups files by chunk id with optional parts") {
    val dir = tmpDir(); ChunkStore.init(dir)
    ChunkStore.writeManifest(dir, ChunkStore.Manifest(schema, registry, chunks))
    val files = ChunkStore.listChunks(dir)
    assert(files.map(_.id) === Vector(0, 1, 2))
    assert(files(0) === ChunkStore.ChunkFiles(0, None, None, Some(ChunkStore.rawPath(dir, 0))))
    assert(files(1) === ChunkStore.ChunkFiles(1, Some(ChunkStore.parquetPath(dir, 1)), Some(ChunkStore.bitsPath(dir, 1)), None))
    assert(files(2).parquet.nonEmpty && files(2).bits.nonEmpty && files(2).raw.nonEmpty)
  }

  test("paths are zero-padded and sorted numerically") {
    val dir = tmpDir()
    assert(ChunkStore.parquetPath(dir, 7).endsWith("chunk-00007.parquet"))
    assert(ChunkStore.bitsPath(dir, 123).endsWith("chunk-00123.bits"))
    assert(ChunkStore.rawPath(dir, 0).endsWith("chunk-00000.raw"))
  }

  test("unknown atom kind in registry JSON fails loudly") {
    val dir = tmpDir(); ChunkStore.init(dir)
    Files.write(Paths.get(ChunkStore.manifestPath(dir)),
      """{"cols":[],"predicates":[{"id":0,"sel":0.1,"cost":0.1,"atoms":[{"kind":"range","attr":"x"}]}],"chunks":[]}"""
        .getBytes)
    intercept[IllegalArgumentException](ChunkStore.readManifest(dir))
  }

  test("a store without a manifest is refused by every reader") {
    val dir = tmpDir(); ChunkStore.init(dir)
    ParquetIO.writeChunk(ChunkStore.parquetPath(dir, 0), schema, Vector.empty)
    intercept[IllegalStateException](ChunkStore.readManifest(dir))
    intercept[IllegalStateException](ChunkStore.listChunks(dir))
    intercept[IllegalStateException](ChunkStore.readSchema(dir))
    intercept[IllegalStateException](ChunkStore.readRegistry(dir))
  }
}
