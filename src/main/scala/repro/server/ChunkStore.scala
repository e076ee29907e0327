package repro.server

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths, StandardCopyOption}
import java.util.Comparator

import scala.util.Using

import org.apache.spark.sql.types.{BooleanType, DoubleType, LongType, StringType, StructField, StructType}

import repro.core._
import repro.json._

/** On-disk layout of a CIAO store (one per loaded dataset):
  *
  * {{{
  * <dir>/manifest.json                schema, pushed predicates, chunk row counts
  * <dir>/chunks/chunk-00000.parquet   loaded tuples (absent if none)
  * <dir>/chunks/chunk-00000.bits      sidecar bit-vectors over loaded rows
  * <dir>/chunks/chunk-00000.raw       unloaded raw JSON lines (absent if none)
  * }}}
  *
  * `manifest.json` is the store's only index. Its registry is the paper's
  * "predicate hashmap" (Fig. 2): it maps each pushed-down predicate to its
  * id, so the query path can translate Spark filters to sidecar bit-vector
  * ids. The loader writes it last, with an atomic rename, so a load that did
  * not finish leaves no manifest and every reader refuses the store.
  */
object ChunkStore {

  /** One pushed-down predicate in the registry. */
  final case class RegEntry(id: Int, clause: Clause, sel: Double, cost: Double)

  /** The predicate registry, indexable by clause canonical form. */
  final case class Registry(entries: Vector[RegEntry]) {
    lazy val byCanonical: Map[String, RegEntry] = entries.map(e => e.clause.canonical -> e).toMap
    def ids: Vector[Int] = entries.map(_.id)
    def isEmpty: Boolean = entries.isEmpty
  }

  /** One chunk as the manifest records it: the row counts of its Parquet and `.raw` files (each
    * written only when its count is positive), and whether a sidecar was written.
    */
  final case class ChunkEntry(id: Int, loadedRows: Long, rawRows: Long, bits: Boolean) {
    def files(dir: String): ChunkFiles = ChunkFiles(id,
      Option.when(loadedRows > 0)(parquetPath(dir, id)),
      Option.when(bits)(bitsPath(dir, id)),
      Option.when(rawRows > 0)(rawPath(dir, id)))
  }

  /** Contents of `manifest.json`. Each column's type is spelled by its Spark `typeName`. */
  final case class Manifest(schema: StructType, registry: Registry, chunks: Vector[ChunkEntry])

  def manifestPath(dir: String): String = s"$dir/manifest.json"
  def chunksDir(dir: String): String    = s"$dir/chunks"
  def parquetPath(dir: String, i: Int): String = f"${chunksDir(dir)}/chunk-$i%05d.parquet"
  def bitsPath(dir: String, i: Int): String    = f"${chunksDir(dir)}/chunk-$i%05d.bits"
  def rawPath(dir: String, i: Int): String     = f"${chunksDir(dir)}/chunk-$i%05d.raw"

  /** Files present for one chunk id. */
  final case class ChunkFiles(id: Int, parquet: Option[String], bits: Option[String], raw: Option[String])

  /** Wipe and (re-)create the store directory skeleton. */
  def init(dir: String): Unit = {
    if (Files.exists(Paths.get(dir)))
      Using.resource(Files.walk(Paths.get(dir)))(_.sorted(Comparator.reverseOrder()).forEach(Files.delete(_)))
    Files.createDirectories(Paths.get(chunksDir(dir)))
    ()
  }

  def readSchema(dir: String): StructType      = readManifest(dir).schema
  def readRegistry(dir: String): Registry      = readManifest(dir).registry
  def listChunks(dir: String): Vector[ChunkFiles] = readManifest(dir).chunks.map(_.files(dir))

  // ---- manifest codec (manifest.json) ----

  private def num(x: Any): JNum = JNum(x.toString)

  private def atomToJson(a: Atom): JObj = JObj(a match {
    case ExactMatch(attr, v)     => Vector("kind" -> JStr("exact"), "attr" -> JStr(attr), "value" -> JStr(v))
    case SubstringMatch(attr, v) => Vector("kind" -> JStr("substr"), "attr" -> JStr(attr), "value" -> JStr(v))
    case KeyPresence(attr)       => Vector("kind" -> JStr("present"), "attr" -> JStr(attr))
    case KeyValueMatch(attr, l)  => Vector("kind" -> JStr("kv"), "attr" -> JStr(attr), "value" -> JStr(l))
  })

  /** Write the manifest via a temporary file and an atomic rename: readers see none or all of it. */
  def writeManifest(dir: String, m: Manifest): Unit = {
    val json = JObj(Vector(
      "cols" -> JArr(m.schema.fields.toVector.map { f =>
        JObj(Vector("name" -> JStr(f.name), "type" -> JStr(f.dataType.typeName)))
      }),
      "predicates" -> JArr(m.registry.entries.map { e =>
        JObj(Vector("id" -> num(e.id), "sel" -> num(e.sel), "cost" -> num(e.cost),
          "atoms" -> JArr(e.clause.atoms.map(atomToJson))))
      }),
      "chunks" -> JArr(m.chunks.map { c =>
        JObj(Vector("id" -> num(c.id), "loaded" -> num(c.loadedRows), "raw" -> num(c.rawRows), "bits" -> JBool(c.bits)))
      }),
    ))
    val tmp = Paths.get(manifestPath(dir) + ".tmp")
    Files.write(tmp, json.render.getBytes(StandardCharsets.UTF_8))
    Files.move(tmp, Paths.get(manifestPath(dir)), StandardCopyOption.ATOMIC_MOVE)
    ()
  }

  /** Read the manifest; a store without one (its load never finished) fails with `IllegalStateException`. */
  def readManifest(dir: String): Manifest = {
    val path = Paths.get(manifestPath(dir))
    if (!Files.exists(path)) throw new IllegalStateException(s"$dir is not a complete CIAO store: $path is missing")
    val root = JsonParser.parseObject(new String(Files.readAllBytes(path), StandardCharsets.UTF_8))
    def objs(o: JObj, k: String): Vector[JObj] = o(k).asInstanceOf[JArr].items.map(_.asInstanceOf[JObj])
    def str(o: JObj, k: String): String = o(k).asInstanceOf[JStr].value
    def long(o: JObj, k: String): Long  = o(k).asInstanceOf[JNum].toLong
    def dbl(o: JObj, k: String): Double = o(k).asInstanceOf[JNum].toDouble
    def atom(o: JObj): Atom = str(o, "kind") match {
      case "exact"   => ExactMatch(str(o, "attr"), str(o, "value"))
      case "substr"  => SubstringMatch(str(o, "attr"), str(o, "value"))
      case "present" => KeyPresence(str(o, "attr"))
      case "kv"      => KeyValueMatch(str(o, "attr"), str(o, "value"))
      case k         => throw new IllegalArgumentException(s"unknown atom kind '$k'")
    }
    val typeOf = Seq(StringType, LongType, DoubleType, BooleanType).map(t => t.typeName -> t).toMap
    Manifest(
      StructType(objs(root, "cols").map { c =>
        StructField(str(c, "name"), typeOf.getOrElse(str(c, "type"),
          throw new IllegalArgumentException(s"unknown column type '${str(c, "type")}'")))
      }),
      Registry(objs(root, "predicates").map { e =>
        RegEntry(long(e, "id").toInt, Clause(objs(e, "atoms").map(atom)), dbl(e, "sel"), dbl(e, "cost"))
      }),
      objs(root, "chunks").map { c =>
        ChunkEntry(long(c, "id").toInt, long(c, "loaded"), long(c, "raw"), c("bits").asInstanceOf[JBool].value)
      })
  }

  // ---- sidecar bit-vector IO ----

  def writeBits(path: String, bits: Map[Int, BitVec]): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path)))
    try BitVectors.write(out, bits) finally out.close()
  }

  def readBits(path: String): Map[Int, BitVec] = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path)))
    try BitVectors.read(in) finally in.close()
  }

  // ---- raw-line IO ----

  def writeRawLines(path: String, lines: Iterable[String]): Unit = {
    Files.write(Paths.get(path), lines.mkString("\n").getBytes(StandardCharsets.UTF_8))
    ()
  }

  def readRawLines(path: String): Vector[String] = {
    val text = new String(Files.readAllBytes(Paths.get(path)), StandardCharsets.UTF_8)
    if (text.isEmpty) Vector.empty else text.split('\n').toVector
  }
}
