package repro.server

import org.apache.spark.sql.types.StructType

import repro.core._
import repro.json.JsonParser

/** Server-side loading (paper §VI-A, Step 2 of Fig. 1).
  *
  * Partial loading parses and converts to Parquet only the JSON objects
  * whose OR over all pushed-predicate bits is 1; the rest are appended,
  * unparsed, to a per-chunk `.raw` file for just-in-time loading. The
  * sidecar bit-vectors are compacted to loaded-row positions so that at
  * query time bit i refers to row i of the chunk's Parquet file.
  *
  * `loadFull` is the zero-budget baseline: the same loop with every object
  * loaded. Bit-vectors supplied anyway are stored uncompacted, so the effect
  * of data skipping alone can be isolated in the micro-benchmarks.
  */
object PartialLoader {

  /** Loading outcome + wall time (the paper's "Data loading" series). */
  final case class LoadStats(totalRows: Long, loadedRows: Long, nChunks: Int, elapsedNanos: Long) {
    def loadedRatio: Double  = if (totalRows == 0) 0.0 else loadedRows.toDouble / totalRows
    def elapsedMillis: Double = elapsedNanos / 1e6
  }

  /** Partially load `chunks` into `dir` using per-chunk client bit-vectors.
    * `registry` must describe exactly the predicate ids present in
    * `bitsPerChunk`. With an empty registry this degrades to a full load.
    */
  def loadPartial(dir: String,
                  schema: StructType,
                  chunks: IndexedSeq[IndexedSeq[String]],
                  bitsPerChunk: IndexedSeq[Map[Int, BitVec]],
                  registry: ChunkStore.Registry): LoadStats =
    load(dir, schema, chunks, bitsPerChunk, registry, loadAll = false)

  /** Full (baseline) load: parse every object into Parquet. When bit-vectors
    * are provided they are stored uncompacted (all rows are loaded), enabling
    * data skipping without partial loading.
    */
  def loadFull(dir: String,
               schema: StructType,
               chunks: IndexedSeq[IndexedSeq[String]],
               bitsPerChunk: IndexedSeq[Map[Int, BitVec]] = IndexedSeq.empty,
               registry: ChunkStore.Registry = ChunkStore.Registry(Vector.empty)): LoadStats =
    load(dir, schema, chunks,
      if (bitsPerChunk.isEmpty) chunks.map(_ => Map.empty[Int, BitVec]) else bitsPerChunk, registry, loadAll = true)

  private def load(dir: String,
                   schema: StructType,
                   chunks: IndexedSeq[IndexedSeq[String]],
                   bitsPerChunk: IndexedSeq[Map[Int, BitVec]],
                   registry: ChunkStore.Registry,
                   loadAll: Boolean): LoadStats = {
    require(chunks.size == bitsPerChunk.size,
      s"chunk/bits count mismatch: ${chunks.size} vs ${bitsPerChunk.size}")
    ChunkStore.init(dir)

    val t0 = System.nanoTime()
    val entries = chunks.indices.map { i =>
      val lines = chunks(i)
      val bits  = bitsPerChunk(i)
      val mask =
        if (loadAll || bits.isEmpty) BitVec.full(lines.size) // full load, or nothing pushed
        else BitVec.unionAll(lines.size, bits.values.toSeq)
      val loadedPos = mask.setBits

      if (loadedPos.nonEmpty) {
        val rows = loadedPos.iterator.map { p =>
          TableSchema.extractRow(schema, JsonParser.parseObject(lines(p)))
        }.toVector
        ParquetIO.writeChunk(ChunkStore.parquetPath(dir, i), schema, rows)
        // Compacting over every row is the identity, so a full mask skips it.
        val kept = if (loadedPos.size == lines.size) bits else bits.map { case (id, bv) => id -> bv.compact(loadedPos) }
        if (kept.nonEmpty) ChunkStore.writeBits(ChunkStore.bitsPath(dir, i), kept)
      }
      if (loadedPos.size < lines.size) {
        val rawLines = lines.indices.filterNot(mask.get).map(lines)
        ChunkStore.writeRawLines(ChunkStore.rawPath(dir, i), rawLines)
      }
      ChunkStore.ChunkEntry(i, loadedPos.size.toLong, (lines.size - loadedPos.size).toLong,
        bits = loadedPos.nonEmpty && bits.nonEmpty)
    }
    // Written last: the manifest is what makes the chunk files a store.
    ChunkStore.writeManifest(dir, ChunkStore.Manifest(schema, registry, entries.toVector))
    LoadStats(entries.map(e => e.loadedRows + e.rawRows).sum, entries.map(_.loadedRows).sum, chunks.size,
      System.nanoTime() - t0)
  }
}
