package repro.client

import repro.core._

/** Client-side predicate evaluation on raw JSON text (paper §IV).
  *
  * The client never parses: every supported predicate reduces to substring
  * searches (`String.indexOf`, the JVM analogue of the paper's C++
  * `std::string::find`). Matching may produce false positives (a pattern
  * found under a different key) but never false negatives — the property
  * the whole system's correctness rests on, enforced by tests.
  */
object ClientFilter {

  /** Evaluate one atom against one raw JSON line using only string search.
    *
    * Patterns are searched unescaped, so a line that spells the value
    * differently could hide a match: a miss on a line holding a backslash
    * (an escape such as `\"`, `\/` or `\u00e9`), or, for a key-value match,
    * on a key whose value is a number written with an exponent (`1e1` for
    * `10`), reports true instead.
    */
  def matchAtom(line: String, atom: Atom): Boolean = findsPattern(line, atom) || escaped(line)

  /** Evaluate a disjunctive clause: OR over its atoms. */
  def matchClause(line: String, clause: Clause): Boolean =
    clause.atoms.exists(findsPattern(line, _)) || escaped(line)

  private def escaped(line: String): Boolean = line.indexOf('\\') >= 0

  /** [[matchAtom]] without the escape rule. */
  private def findsPattern(line: String, atom: Atom): Boolean = atom match {
    case kv: KeyValueMatch =>
      // Search the quoted key; if found, look for the literal between the
      // key and the next field delimiter (',' or the closing '}').
      val keyPat = kv.patterns(0)
      val lit    = kv.patterns(1)
      var from   = 0
      var found  = false
      while (!found && from <= line.length) {
        val k = line.indexOf(keyPat, from)
        if (k < 0) from = line.length + 1
        else {
          val windowStart = k + keyPat.length
          var end         = line.indexOf(',', windowStart)
          if (end < 0) end = line.length
          val brace = line.indexOf('}', windowStart)
          if (brace >= 0 && brace < end) end = brace
          val idx = line.indexOf(lit, windowStart)
          if (idx >= 0 && idx + lit.length <= end) found = true
          else found = exponentNumber(line, windowStart, end)
          from = windowStart
        }
      }
      found
    case _: ExactMatch | _: SubstringMatch | _: KeyPresence => line.indexOf(atom.patterns.head) >= 0
  }

  /** Whether `line(start until end)`, after the `:`, holds a number with an exponent. */
  private def exponentNumber(line: String, start: Int, end: Int): Boolean = {
    var i = start
    while (i < end && (line(i) == ':' || Character.isWhitespace(line(i)))) i += 1
    val number = i < end && (line(i) == '-' || Character.isDigit(line(i)))
    while (number && i < end && line(i) != 'e' && line(i) != 'E') i += 1
    number && i < end
  }

  /** Bit-vectors for one chunk: predicate id → one bit per line, as [[matchClause]]
    * sets it. Each line is scanned for escapes once, not once per clause.
    */
  def chunkBits(lines: IndexedSeq[String], selected: Seq[(Int, Clause)]): Map[Int, BitVec] = {
    val escapes = BitVec.fromBooleans(lines.map(escaped))
    selected.map { case (id, clause) =>
      id -> BitVec.fromBooleans(lines.map(l => clause.atoms.exists(findsPattern(l, _)))).or(escapes)
    }.toMap
  }

  /** Result of client prefiltering over a sequence of chunks. */
  final case class PrefilterResult(
      bitsPerChunk: IndexedSeq[Map[Int, BitVec]],
      elapsedNanos: Long,
  ) {
    def elapsedMillis: Double = elapsedNanos / 1e6
  }

  /** Run prefiltering over all chunks and measure wall time — this is the
    * "prefiltering" series of the paper's end-to-end plots.
    */
  def prefilter(chunks: IndexedSeq[IndexedSeq[String]],
                selected: Seq[(Int, Clause)]): PrefilterResult = {
    val t0   = System.nanoTime()
    val bits = chunks.map(chunkBits(_, selected))
    PrefilterResult(bits, System.nanoTime() - t0)
  }

  /** Split a dataset of raw JSON lines into fixed-size chunks
    * (the paper's clients ship JSON in chunks of ~1k objects).
    */
  def chunk(lines: IndexedSeq[String], chunkSize: Int): IndexedSeq[IndexedSeq[String]] = {
    require(chunkSize > 0, "chunkSize must be positive")
    lines.grouped(chunkSize).toIndexedSeq
  }
}
