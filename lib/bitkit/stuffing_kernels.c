/* Bit stuffing and flag search: the framing sublayer's per-byte loops,
   in portable C99.

   lib/stuffing/fast.ml builds every table and checks every range before
   it calls in, so these functions trust what they are given. They
   allocate nothing and never call back into the runtime, which is what
   [@@noalloc] on their externals requires. The native entry points take
   and return untagged ints; the _byte entry points serve bytecode.

   Bits are MSB-first: bit i of a sequence is bit 7 - i % 8 of byte
   i / 8. The 8-bit window at bit b is shifted out of bytes b / 8 and
   b / 8 + 1. The second byte may be the one at the string's length:
   OCaml ends every string with a zero byte there (what lets String_val
   pass as a C string), so bits past the end read as zero.

   The tables are Bytes of native-endian 64-bit words. A transducer
   table (Fast's stuff_tab and unstuff_tab) maps (q << 8) | byte to
   (bits << 24) | (count << 16) | (next << 8): the output bits, their
   count (at most 16) and the next state, or -1 for a wrong stuffed bit.
   The flag table (find_tab) maps (q << 8) | byte to the next state
   times 256, or to -1 - i when the flag ends at bit i of the byte.

   A transducer's state crosses the boundary packed in one int:
   (output bits written << 8) | q. The output's last partial byte sits
   in the destination buffer, its bits at the top and zeros below, so
   the OCaml writer and these loops hand the output back and forth
   through the buffer itself. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

/* Entry [i] of a table whose column is already chosen: [row] points at
   the input byte's entry in row 0 and [i] is the state's row offset,
   the only part that waits on the previous step. A native word, so no
   tag is shifted out on that path. */
static inline intnat entry(const unsigned char *row, intnat i)
{
  int64_t x;
  memcpy(&x, row + 8 * i, 8);
  return (intnat)x;
}

/* The 8-bit window at bit 8j + sh of p. A constant sh = 0 folds to one
   byte load: the fused deframing loop, which reads two windows a step,
   is inlined twice, once for a byte-aligned body. */
static inline unsigned window(const unsigned char *p, intnat j, unsigned sh)
{
  return sh == 0 ? p[j] : (((unsigned)p[j] << 8 | p[j + 1]) >> (8 - sh)) & 0xFF;
}

/* Output bits gather in [acc], the last [nacc] of them pending (fewer
   than 32 between steps), and leave 32 at a time in one big-endian
   store: those are output bits, so the store stays inside the worst-case
   buffer the caller sized. */
typedef struct {
  unsigned char *dst;
  size_t o;
  uint64_t acc;
  unsigned nacc;
} out_t;

static inline void out_start(out_t *w, unsigned char *dst, intnat nbits)
{
  w->dst = dst;
  w->o = (size_t)(nbits >> 3);
  w->nacc = (unsigned)(nbits & 7);
  w->acc = w->nacc ? dst[w->o] >> (8 - w->nacc) : 0;
}

static inline void out_put(out_t *w, intnat x)
{
  unsigned c = (unsigned)(x >> 16) & 0xFF;
  w->acc = w->acc << c | (uint64_t)x >> 24;
  w->nacc += c;
  if (w->nacc >= 32) {
    uint32_t v;
    w->nacc -= 32;
    v = (uint32_t)(w->acc >> w->nacc);
    w->dst[w->o] = (unsigned char)(v >> 24);
    w->dst[w->o + 1] = (unsigned char)(v >> 16);
    w->dst[w->o + 2] = (unsigned char)(v >> 8);
    w->dst[w->o + 3] = (unsigned char)v;
    w->o += 4;
  }
}

/* Write out the pending bits, the last partial byte padded with zeros,
   and return the output length in bits. */
static inline intnat out_finish(out_t *w)
{
  while (w->nacc >= 8) {
    w->nacc -= 8;
    w->dst[w->o++] = (unsigned char)(w->acc >> w->nacc);
  }
  if (w->nacc > 0) w->dst[w->o] = (unsigned char)(w->acc << (8 - w->nacc));
  return (intnat)(8 * w->o + w->nacc);
}

/* One byte step of a transducer from entry [*e]: false on a wrong
   stuffed bit. */
static inline int step(const unsigned char *tab, intnat *e, out_t *w, unsigned v)
{
  intnat x = entry(tab + 8 * v, *e & 0xFF00);
  if (x < 0) return 0;
  out_put(w, x);
  *e = x;
  return 1;
}

/* Windows [j, stop) of p through a transducer. */
static inline int steps(const unsigned char *tab, const unsigned char *p, unsigned sh,
                        intnat j, intnat stop, intnat *e, out_t *w)
{
  for (; j < stop; j++)
    if (!step(tab, e, w, window(p, j, sh))) return 0;
  return 1;
}

static inline intnat pack(out_t *w, intnat e)
{
  return out_finish(w) << 8 | (e >> 8 & 0xFF);
}

/* Feed the [nbytes] windows of src from bit [pos] through [tab] into
   dst, from packed [state]. Returns the packed state after them, or -1
   on a wrong stuffed bit. */
CAMLprim intnat bitkit_stuffing_transduce(value tab, value src, intnat pos, intnat nbytes,
                                          value dst, intnat state)
{
  const unsigned char *t = Bytes_val(tab);
  const unsigned char *p = (const unsigned char *)String_val(src) + (pos >> 3);
  unsigned sh = (unsigned)(pos & 7);
  intnat e = (state & 0xFF) << 8;
  out_t w;
  out_start(&w, Bytes_val(dst), state >> 8);
  if (!steps(t, p, sh, 0, nbytes, &e, &w)) return -1;
  return pack(&w, e);
}

CAMLprim value bitkit_stuffing_transduce_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(bitkit_stuffing_transduce(argv[0], argv[1], Long_val(argv[2]),
                                            Long_val(argv[3]), argv[4], Long_val(argv[5])));
}

/* The flag's first bit, given the f windows read from bit [from], the
   last ending the flag if the final entry q is negative; -1 if no flag
   ends before [len]. */
static inline intnat flag_start(intnat from, intnat f, intnat q, intnat len, intnat m)
{
  intnat last = from + 8 * (f - 1) - 1 - q;
  return q < 0 && last < len ? last + 1 - m : -1;
}

/* The first [m]-bit flag in the windows of src from bit [from] that
   start below bit [len]: its first bit, or -1. */
CAMLprim intnat bitkit_stuffing_find_flag(value tab, value src, intnat from, intnat len,
                                          intnat m)
{
  const unsigned char *t = Bytes_val(tab);
  const unsigned char *p = (const unsigned char *)String_val(src) + (from >> 3);
  unsigned sh = (unsigned)(from & 7);
  intnat nwin = (len - from + 7) >> 3, q = 0, f = 0;
  while (f < nwin) {
    q = entry(t + 8 * window(p, f++, sh), q);
    if (q < 0) break;
  }
  return flag_start(from, f, q, len, m);
}

CAMLprim value bitkit_stuffing_find_flag_byte(value tab, value src, value from, value len,
                                              value m)
{
  return Val_long(
      bitkit_stuffing_find_flag(tab, src, Long_val(from), Long_val(len), Long_val(m)));
}

/* The fused loop: window f of the flag search, then window f - lead of
   the unstuffer. Returns the windows searched (the closing flag ends in
   the last if [*q] < 0) with the unstuffer's windows in [*i], or -1 on
   a wrong stuffed bit. */
static inline intnat fused(const unsigned char *ft, const unsigned char *ut,
                           const unsigned char *p, unsigned sh, intnat nwin, intnat lead,
                           intnat *q, intnat *i, intnat *e, out_t *w)
{
  intnat f = 0, s = 0, u = 0;
  while (f < nwin) {
    s = entry(ft + 8 * window(p, f++, sh), s);
    if (s < 0) break;
    if (f >= lead && !step(ut, e, w, window(p, u++, sh))) return -1;
  }
  *q = s;
  *i = u;
  return f;
}

/* The body of a frame whose opening [m]-bit flag ends at bit [body],
   unstuffed into dst in one pass: the flag automaton runs
   lead = ceil((m + 7) / 8) windows ahead of the unstuffer. After f
   windows without a match no flag starts before bit body + 8f - m + 1,
   so window f - lead, which ends at bit body + 8(f - lead) + 7, lies
   wholly in the body: a wrong stuffed bit there means no frame, whether
   or not a closing flag follows. Once the closing flag is found the
   unstuffer takes the body's remaining whole bytes.

   Returns -1 for no frame, otherwise (state << 10) | (n << 7) | tail:
   the unstuffer's packed state and the body's last n (< 8) bits, the
   low bits of [tail], which the caller steps through one at a time. */
CAMLprim intnat bitkit_stuffing_deframe(value find_tab, value unstuff_tab, value src,
                                        intnat body, intnat len, intnat m, value dst)
{
  const unsigned char *ft = Bytes_val(find_tab), *ut = Bytes_val(unstuff_tab);
  const unsigned char *p = (const unsigned char *)String_val(src) + (body >> 3);
  unsigned sh = (unsigned)(body & 7);
  intnat nwin = (len - body + 7) >> 3, lead = (m + 14) >> 3;
  intnat q, i, e = 0, f, stop, n;
  unsigned tail = 0;
  out_t w;
  out_start(&w, Bytes_val(dst), 0);
  f = sh == 0 ? fused(ft, ut, p, 0, nwin, lead, &q, &i, &e, &w)
              : fused(ft, ut, p, sh, nwin, lead, &q, &i, &e, &w);
  if (f < 0) return -1;
  stop = flag_start(body, f, q, len, m);
  if (stop < 0) return -1;
  n = stop - body;
  if (!steps(ut, p, sh, i, n >> 3, &e, &w)) return -1;
  if (n & 7) tail = window(p, n >> 3, sh) >> (8 - (n & 7));
  return pack(&w, e) << 10 | (n & 7) << 7 | tail;
}

CAMLprim value bitkit_stuffing_deframe_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(bitkit_stuffing_deframe(argv[0], argv[1], argv[2], Long_val(argv[3]),
                                          Long_val(argv[4]), Long_val(argv[5]), argv[6]));
}
