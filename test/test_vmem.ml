module Layout = Pm2_vmem.Layout
module As = Pm2_vmem.Address_space

(* -- Layout -- *)

let test_layout_constants () =
  Alcotest.(check int) "page size" 4096 Layout.page_size;
  Alcotest.(check int) "iso area is 3.5 GB" (3584 * 1024 * 1024) Layout.iso_size;
  Alcotest.(check int) "iso area slot count" 57344 (Layout.iso_size / (64 * 1024));
  Alcotest.(check bool) "segments ordered" true
    (Layout.code_base < Layout.data_base
     && Layout.data_base < Layout.heap_base
     && Layout.heap_base + Layout.heap_max_size <= Layout.iso_base
     && Layout.iso_base + Layout.iso_size <= Layout.stack_base)

let test_layout_alignment () =
  Alcotest.(check bool) "iso_base aligned" true (Layout.is_page_aligned Layout.iso_base);
  Alcotest.(check int) "align down" 0x2000 (Layout.page_align_down 0x2fff);
  Alcotest.(check int) "align up" 0x3000 (Layout.page_align_up 0x2001);
  Alcotest.(check int) "align up exact" 0x2000 (Layout.page_align_up 0x2000);
  Alcotest.(check int) "page_of_addr" 2 (Layout.page_of_addr 0x2abc);
  Alcotest.(check int) "addr_of_page" 0x2000 (Layout.addr_of_page 2)

let test_layout_membership () =
  Alcotest.(check bool) "iso member" true (Layout.in_iso_area Layout.iso_base);
  Alcotest.(check bool) "iso non-member" false
    (Layout.in_iso_area (Layout.iso_base + Layout.iso_size));
  Alcotest.(check bool) "heap member" true (Layout.in_heap Layout.heap_base);
  Alcotest.(check bool) "heap non-member" false (Layout.in_heap Layout.iso_base)

(* -- Address_space -- *)

let space () = As.create ~node:0 ()

let test_mmap_read_write () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  Alcotest.(check bool) "mapped" true (As.is_mapped sp 0x10000);
  Alcotest.(check bool) "mapped 2nd page" true (As.is_mapped sp 0x11000);
  Alcotest.(check bool) "not mapped" false (As.is_mapped sp 0x12000);
  Alcotest.(check int) "zero-filled" 0 (As.load_word sp 0x10100);
  As.store_word sp 0x10100 0x123456789abcd;
  Alcotest.(check int) "word roundtrip" 0x123456789abcd (As.load_word sp 0x10100);
  As.store_u8 sp 0x10000 0xfe;
  Alcotest.(check int) "byte roundtrip" 0xfe (As.load_u8 sp 0x10000)

let test_negative_word () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:4096;
  As.store_word sp 0x10008 (-42);
  Alcotest.(check int) "negative word" (-42) (As.load_word sp 0x10008)

let test_cross_page_word () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  (* A word straddling the page boundary at 0x11000. *)
  As.store_word sp 0x10ffc 0x1122334455667788;
  Alcotest.(check int) "straddling word" 0x1122334455667788 (As.load_word sp 0x10ffc)

let test_segfault () =
  let sp = space () in
  let check_segv f =
    match f () with
    | exception As.Segfault { addr; node; _ } ->
      Alcotest.(check int) "faulting node" 0 node;
      Alcotest.(check bool) "addr in range" true (addr >= 0x20000);
      true
    | _ -> false
  in
  Alcotest.(check bool) "load faults" true (check_segv (fun () -> As.load_word sp 0x20000));
  Alcotest.(check bool) "store faults" true
    (check_segv (fun () -> As.store_word sp 0x20000 1; 0))

let test_mmap_overlap_rejected () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  Alcotest.(check bool) "overlap rejected" true
    (try As.mmap sp ~addr:0x11000 ~size:4096; false
     with Invalid_argument _ -> true);
  (* The failed mmap must not have mapped anything partially. *)
  Alcotest.(check bool) "no partial map" false (As.is_mapped sp 0x12000)

let test_mmap_alignment_rejected () =
  let sp = space () in
  Alcotest.(check bool) "unaligned addr" true
    (try As.mmap sp ~addr:0x10001 ~size:4096; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "unaligned size" true
    (try As.mmap sp ~addr:0x10000 ~size:100; false with Invalid_argument _ -> true)

let test_munmap () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  As.munmap sp ~addr:0x10000 ~size:4096;
  Alcotest.(check bool) "first page gone" false (As.is_mapped sp 0x10000);
  Alcotest.(check bool) "second page stays" true (As.is_mapped sp 0x11000);
  Alcotest.(check bool) "double munmap rejected" true
    (try As.munmap sp ~addr:0x10000 ~size:4096; false with Invalid_argument _ -> true);
  Alcotest.(check int) "mapped pages" 1 (As.mapped_pages sp)

let test_remap_after_munmap () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:4096;
  As.store_word sp 0x10000 99;
  As.munmap sp ~addr:0x10000 ~size:4096;
  As.mmap sp ~addr:0x10000 ~size:4096;
  Alcotest.(check int) "fresh pages are zero" 0 (As.load_word sp 0x10000);
  Alcotest.(check int) "mmap_calls counted" 2 (As.mmap_calls sp)

let test_bytes_roundtrip () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:(3 * 4096);
  let data = Bytes.init 9000 (fun i -> Char.chr (i mod 256)) in
  As.store_bytes sp 0x10100 data;
  Alcotest.(check bytes) "cross-page bytes" data (As.load_bytes sp 0x10100 9000)

let test_range_mapped () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  Alcotest.(check bool) "full range" true (As.range_mapped sp ~addr:0x10000 ~size:8192);
  Alcotest.(check bool) "partial range" false (As.range_mapped sp ~addr:0x10000 ~size:12288);
  Alcotest.(check bool) "empty range" true (As.range_mapped sp ~addr:0x50000 ~size:0)

let test_cstring () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:4096;
  As.store_bytes sp 0x10000 (Bytes.of_string "hello\000world");
  Alcotest.(check string) "cstring stops at NUL" "hello" (As.load_cstring sp 0x10000);
  Alcotest.(check string) "offset cstring" "world" (As.load_cstring sp 0x10006)

let test_fill_and_copy () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  As.fill sp ~addr:0x10000 ~size:16 0xab;
  Alcotest.(check int) "filled" 0xab (As.load_u8 sp 0x1000f);
  As.copy_within sp ~src:0x10000 ~dst:0x11000 ~size:16;
  Alcotest.(check int) "copied" 0xab (As.load_u8 sp 0x1100f)

let test_blit_across_spaces () =
  let a = As.create ~node:0 () and b = As.create ~node:1 () in
  As.mmap a ~addr:0x10000 ~size:4096;
  As.mmap b ~addr:0x10000 ~size:4096;
  As.store_word a 0x10010 777;
  As.blit ~src:a ~src_addr:0x10000 ~dst:b ~dst_addr:0x10000 ~size:4096;
  Alcotest.(check int) "iso-address blit" 777 (As.load_word b 0x10010)

(* -- demand-zero pages -- *)

let slot = 64 * 1024

let test_mmap_is_demand_zero () =
  let sp = space () in
  for i = 0 to 63 do
    As.mmap sp ~addr:(Layout.iso_base + (i * slot)) ~size:slot
  done;
  Alcotest.(check int) "every page mapped" (64 * 16) (As.mapped_pages sp);
  Alcotest.(check int) "no page resident" 0 (As.resident_pages sp)

let test_loads_materialise_nothing () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:slot;
  let sum = ref 0 in
  for w = 0 to (slot / 8) - 1 do
    sum := !sum lor As.load_word sp (0x10000 + (w * 8))
  done;
  Alcotest.(check int) "reads zero" 0 !sum;
  Alcotest.(check int) "cross-page word reads zero" 0 (As.load_word sp 0x10ffc);
  Alcotest.(check bytes) "bulk read is zero" (Bytes.make 9000 '\000')
    (As.load_bytes sp 0x10100 9000);
  Alcotest.(check bool) "page reads zero" true (As.page_is_zero sp 0x13000);
  Alcotest.(check bool) "page clean" false (As.page_dirty sp 0x13000);
  Alcotest.(check int) "still nothing resident" 0 (As.resident_pages sp)

let test_first_store_materialises_one_page () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:slot;
  ignore (As.load_word sp 0x12008);
  As.store_word sp 0x12008 42;
  Alcotest.(check int) "one page resident" 1 (As.resident_pages sp);
  Alcotest.(check int) "read after store" 42 (As.load_word sp 0x12008);
  Alcotest.(check bool) "stored page dirty" true (As.page_dirty sp 0x12000);
  Alcotest.(check bool) "neighbour clean" false (As.page_dirty sp 0x13000);
  As.store_word sp 0x12010 43;
  Alcotest.(check int) "second store, same page" 1 (As.resident_pages sp);
  As.store_word sp 0x13ffc 7;
  Alcotest.(check int) "straddling store materialises both" 3 (As.resident_pages sp);
  Alcotest.(check int) "mapped count unchanged" 16 (As.mapped_pages sp)

let test_shared_zero_page_never_written () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:slot;
  As.fill sp ~addr:0x10000 ~size:slot 0xff;
  As.store_bytes sp 0x10000 (Bytes.make 100 'x');
  let other = As.create ~node:1 () in
  As.mmap sp ~addr:0x40000 ~size:slot;
  As.mmap other ~addr:0x10000 ~size:slot;
  let zero = Bytes.make slot '\000' in
  Alcotest.(check bytes) "fresh mapping, same space" zero (As.load_bytes sp 0x40000 slot);
  Alcotest.(check bytes) "fresh mapping, other space" zero
    (As.load_bytes other 0x10000 slot);
  Alcotest.(check bytes) "read handle is zero" (Bytes.make Layout.page_size '\000')
    (As.page_for_read other 0x10000)

let test_clean_page_hash () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  let zero_hash = As.page_bytes_hash (Bytes.make 4096 '\000') in
  Alcotest.(check int) "clean page hash" zero_hash (As.page_hash sp 0x10000);
  As.store_word sp 0x11008 5;
  As.store_word sp 0x11008 0;
  Alcotest.(check int) "zeroed data page hash" zero_hash (As.page_hash sp 0x11000);
  Alcotest.(check int) "hashing materialises nothing" 1 (As.resident_pages sp)

let test_zero_store_stays_zero () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:4096;
  As.store_word sp 0x10010 0;
  As.fill sp ~addr:0x10100 ~size:64 0;
  Alcotest.(check bool) "materialised" true (As.page_dirty sp 0x10000);
  Alcotest.(check bool) "still reads as zero" true (As.page_is_zero sp 0x10000);
  As.store_u8 sp 0x10fff 1;
  Alcotest.(check bool) "one byte breaks it" false (As.page_is_zero sp 0x10000)

let test_remap_reads_zero () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  As.fill sp ~addr:0x10000 ~size:8192 0x5a;
  ignore (As.load_word sp 0x10000);
  As.munmap sp ~addr:0x10000 ~size:8192;
  Alcotest.(check int) "munmap releases resident pages" 0 (As.resident_pages sp);
  As.mmap sp ~addr:0x10000 ~size:8192;
  Alcotest.(check int) "reads zero, not the cached old page" 0 (As.load_word sp 0x10000);
  Alcotest.(check int) "second page reads zero" 0 (As.load_word sp 0x11ff8);
  Alcotest.(check bool) "clean again" false (As.page_dirty sp 0x10000);
  As.store_word sp 0x10000 1;
  Alcotest.(check int) "scrub counts mapped pages" 2
    (As.scrub_range sp ~addr:0x10000 ~size:8192);
  Alcotest.(check int) "scrub releases resident pages" 0 (As.resident_pages sp)

let test_epoch_heat () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:slot;
  As.store_word sp 0x10000 1;
  Alcotest.(check int) "pre-history reads 0" 0 (As.dirty_in_epoch sp ~addr:0x10000 ~size:slot);
  As.advance_epoch sp;
  Alcotest.(check int) "new window starts cold" 0
    (As.dirty_in_epoch sp ~addr:0x10000 ~size:slot);
  As.store_word sp 0x10000 2;
  As.store_word sp 0x10008 3;
  As.store_word sp 0x12000 4;
  ignore (As.load_word sp 0x13000);
  Alcotest.(check int) "two pages stored this window" 2
    (As.dirty_in_epoch sp ~addr:0x10000 ~size:slot);
  As.advance_epoch sp;
  As.store_word sp 0x12000 5;
  Alcotest.(check int) "only the page stored again" 1
    (As.dirty_in_epoch sp ~addr:0x10000 ~size:slot);
  Alcotest.(check int) "unmapped range counts 0" 0
    (As.dirty_in_epoch sp ~addr:0x90000 ~size:slot)

let prop_word_roundtrip =
  QCheck2.Test.make ~name:"store_word/load_word roundtrips at any aligned offset"
    QCheck2.Gen.(pair (int_range 0 4088) int)
    (fun (off, v) ->
       let sp = space () in
       As.mmap sp ~addr:0x10000 ~size:8192;
       let addr = 0x10000 + off in
       As.store_word sp addr v;
       As.load_word sp addr = v)

let tests =
  [
    Alcotest.test_case "layout constants (Fig. 5)" `Quick test_layout_constants;
    Alcotest.test_case "layout alignment helpers" `Quick test_layout_alignment;
    Alcotest.test_case "layout membership" `Quick test_layout_membership;
    Alcotest.test_case "mmap/read/write" `Quick test_mmap_read_write;
    Alcotest.test_case "negative word values" `Quick test_negative_word;
    Alcotest.test_case "word across page boundary" `Quick test_cross_page_word;
    Alcotest.test_case "segfault on unmapped access" `Quick test_segfault;
    Alcotest.test_case "mmap overlap rejected" `Quick test_mmap_overlap_rejected;
    Alcotest.test_case "mmap alignment rejected" `Quick test_mmap_alignment_rejected;
    Alcotest.test_case "munmap partial" `Quick test_munmap;
    Alcotest.test_case "remap zero-fills" `Quick test_remap_after_munmap;
    Alcotest.test_case "bytes roundtrip across pages" `Quick test_bytes_roundtrip;
    Alcotest.test_case "range_mapped" `Quick test_range_mapped;
    Alcotest.test_case "cstring loading" `Quick test_cstring;
    Alcotest.test_case "fill and copy_within" `Quick test_fill_and_copy;
    Alcotest.test_case "blit across spaces" `Quick test_blit_across_spaces;
    Alcotest.test_case "demand-zero: mmap leaves nothing resident" `Quick
      test_mmap_is_demand_zero;
    Alcotest.test_case "demand-zero: loads materialise nothing" `Quick
      test_loads_materialise_nothing;
    Alcotest.test_case "demand-zero: first store materialises a page" `Quick
      test_first_store_materialises_one_page;
    Alcotest.test_case "demand-zero: shared zero page never written" `Quick
      test_shared_zero_page_never_written;
    Alcotest.test_case "demand-zero: clean page hash" `Quick test_clean_page_hash;
    Alcotest.test_case "demand-zero: storing zeros stays zero" `Quick
      test_zero_store_stays_zero;
    Alcotest.test_case "demand-zero: remap reads zero" `Quick test_remap_reads_zero;
    Alcotest.test_case "demand-zero: epoch heat" `Quick test_epoch_heat;
    QCheck_alcotest.to_alcotest prop_word_roundtrip;
  ]
