(* The loop behind test_heap's "dropped heaps are unmapped in pace", in
   a process of its own so that no other test's heap or collector state
   paces it: 64 heaps of 2^19-word semispaces, each written once per
   page and dropped, with nothing else allocated. Prints one heap's size
   and the resident set's largest growth over the loop, in kB, or
   "skip" where /proc/self/status is absent. *)

module Heap = Hsgc_heap.Heap

let vm_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.starts_with ~prefix:"VmRSS:" line then
          Scanf.sscanf line "VmRSS: %d kB" (fun kb -> Some kb)
        else find ()
    in
    let kb = find () in
    close_in ic;
    kb

let () =
  match vm_rss_kb () with
  | None -> print_endline "skip"
  | Some start ->
    let semispace_words = 1 lsl 19 in
    let page_words = 4096 / 8 in
    let peak = ref start in
    for _ = 1 to 64 do
      let h = Heap.create ~semispace_words in
      let m = h.Heap.mem in
      let i = ref 0 in
      while !i < Heap.length m do
        m.{!i} <- 1;
        i := !i + page_words
      done;
      ignore (Sys.opaque_identity h);
      match vm_rss_kb () with Some kb -> peak := max !peak kb | None -> ()
    done;
    Printf.printf "%d %d\n" ((8 * (1 + (2 * semispace_words)) + 1023) / 1024) (!peak - start)
