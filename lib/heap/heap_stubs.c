/* Heap memory from the OS: an anonymous private mapping wrapped as a
   one-dimensional Bigarray of OCaml ints (Bigarray.int, C layout).

   A fresh mapping is the kernel's zero page until a word of it is
   written, so making one costs O(1) whatever its size, and it is
   resident only in the pages written since. The array lives outside
   the OCaml heap: the major GC neither marks its words nor grows the
   heap by them.

   The custom operations are the standard Bigarray's, copied once at
   module load with the finalizer replaced by one that unmaps the
   memory; equality, hashing and Marshal stay the standard Bigarray's.
   A sub-array (Bigarray.Array1.sub) shares the mapping without a
   reference count, so none may outlive the array it was cut from.
   Zeroing a range hands its whole pages back to the kernel.

   The mapping's size is made known to the GC as an external resource
   of [caml_alloc_custom] against HSGC_WORDS_GC_MAX: a dropped heap
   speeds up the major GC by its share of that constant, so the cycles
   that unmap dead heaps keep pace with a program that makes heaps in a
   loop. The value was measured (docs/PERFORMANCE.md, section 10): with
   no accounting, dead heaps were never unmapped; with the runtime's
   own ratio (caml_alloc_custom_mem) the forced major cycles cost most
   of the setup gain; 256 MB let the resident peak grow with the number
   of heaps made; 32 MB cost 13 % more CPU time on the fig5 sweep;
   64 MB held a fresh process at 13 dead 8 MB heaps and kept the gain. */

#define _GNU_SOURCE
#include <stdint.h>
#include <string.h>
#include <unistd.h>
#include <sys/mman.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/bigarray.h>
#include <caml/fail.h>

/* Declared by custom.h under CAML_INTERNALS only. */
extern const struct custom_operations caml_ba_ops;

#define HSGC_WORDS_GC_MAX ((mlsize_t)64 << 20)

static struct custom_operations hsgc_words_ops;

/* Sub-arrays and reshaped views inherit these operations from the
   array they were cut from (the runtime copies them), and carry
   CAML_BA_SUBARRAY: only the array that owns the mapping unmaps it. */
static void hsgc_words_finalize(value v)
{
  struct caml_ba_array *b = Caml_ba_array_val(v);
  if ((b->flags & CAML_BA_SUBARRAY) == 0 && b->data != NULL)
    munmap(b->data, (size_t)b->dim[0] * sizeof(intnat));
}

value hsgc_words_init(value unit)
{
  (void)unit;
  hsgc_words_ops = caml_ba_ops;
  hsgc_words_ops.finalize = hsgc_words_finalize;
  return Val_unit;
}

value hsgc_words_create(value vn)
{
  intnat n = Long_val(vn);
  size_t bytes;
  void *data = NULL;
  value res;
  struct caml_ba_array *b;
  if (n < 0 || (uintnat)n > SIZE_MAX / sizeof(intnat))
    caml_invalid_argument("Heap.zeros");
  bytes = (size_t)n * sizeof(intnat);
  if (bytes > 0) {
    data = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (data == MAP_FAILED) caml_raise_out_of_memory();
  }
  /* Only an unreachable block is finalized, and this one is reachable
     until it is returned: no finalizer sees the fields below unset. */
  res = caml_alloc_custom(&hsgc_words_ops, SIZEOF_BA_ARRAY + sizeof(intnat),
                          bytes, HSGC_WORDS_GC_MAX);
  b = Caml_ba_array_val(res);
  b->data = data;
  b->num_dims = 1;
  b->flags = CAML_BA_CAML_INT | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL;
  b->proxy = NULL;
  b->dim[0] = n;
  return res;
}

/* Zero [len] words from [pos] (bounds checked by the caller): the
   whole pages inside the range are handed back to the kernel, which
   reads them as zero pages again, and only the partial pages at its
   ends are written. */
value hsgc_words_zero(value vw, value vpos, value vlen)
{
  struct caml_ba_array *b = Caml_ba_array_val(vw);
  char *lo = (char *)b->data + Long_val(vpos) * sizeof(intnat);
  char *hi = lo + Long_val(vlen) * sizeof(intnat);
  uintptr_t page = (uintptr_t)sysconf(_SC_PAGESIZE);
  char *alo = (char *)(((uintptr_t)lo + page - 1) & ~(page - 1));
  char *ahi = (char *)((uintptr_t)hi & ~(page - 1));
  if (alo < ahi && madvise(alo, (size_t)(ahi - alo), MADV_DONTNEED) == 0) {
    memset(lo, 0, (size_t)(alo - lo));
    memset(ahi, 0, (size_t)(hi - ahi));
  } else {
    memset(lo, 0, (size_t)(hi - lo));
  }
  return Val_unit;
}
