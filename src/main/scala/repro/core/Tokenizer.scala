package repro.core

/** Lowercasing word tokenizer — the repo's stand-in for the BERT-uncased
  * tokenizer. Splits on any non-alphanumeric rune and lowercases, so
  * "Reference Area" -> ["reference", "area"] and "AT130" -> ["at130"].
  */
object Tokenizer {

  /** Tokenize one string; null-safe (null -> no tokens). */
  def tokenize(s: String): Seq[String] =
    if (s == null) Seq.empty
    else s.toLowerCase.split("[^\\p{Alnum}]+").iterator.filter(_.nonEmpty).toSeq

  /** Tokenize many strings into one flat token sequence. */
  def tokenizeAll(ss: Iterable[String]): Seq[String] =
    ss.iterator.flatMap(tokenize).toSeq

  /** Bag (multiset) of tokens with counts; the unit of "mean-pooled"
    * value summaries used by the value-based baseline analogues.
    */
  def bag(tokens: Iterable[String]): Map[String, Int] =
    tokens.groupBy(identity).map { case (t, ts) => (t, ts.size) }

  /** Cosine similarity between two token bags (0 when either is empty). */
  def cosine(a: Map[String, Int], b: Map[String, Int]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val dot = a.iterator.map { case (t, c) => c.toDouble * b.getOrElse(t, 0) }.sum
    val na  = math.sqrt(a.valuesIterator.map(c => c.toDouble * c).sum)
    val nb  = math.sqrt(b.valuesIterator.map(c => c.toDouble * c).sum)
    if (na == 0 || nb == 0) 0.0 else dot / (na * nb)
  }

  /** Jaccard over token *sets* (headers, descriptions). */
  def jaccard(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty && b.isEmpty) 0.0
    else {
      val shared = a.count(b)
      shared.toDouble / (a.size + b.size - shared)
    }
}
