(* Unit and property tests for the util substrate: RNG determinism and
   distributions, streaming stats, tables. *)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Util.Rng.create 42 in
  let child = Util.Rng.split a in
  (* The child stream must differ from the parent's continuation. *)
  let differs = ref false in
  for _ = 1 to 20 do
    if not (Int64.equal (Util.Rng.int64 a) (Util.Rng.int64 child)) then differs := true
  done;
  Alcotest.(check bool) "split diverges" true !differs

(* The SplitMix64 stream, pinned: every seeded run in the repository
   depends on these exact draws, whatever the state's representation. *)
let test_rng_pinned () =
  let first16 rng = List.init 16 (fun _ -> Util.Rng.int64 rng) in
  let seed0 =
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL; 0xf88bb8a8724c81ecL;
      0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL;
      0x3ee5789041c98ac3L; 0xf3b8488c368cb0a6L; 0x657eecdd3cb13d09L; 0xc2d326e0055bdef6L;
      0x8621a03fe0bbdb7bL; 0x8e1f7555983aa92fL; 0xb54e0f1600cc4d19L; 0x84bb3f97971d80abL ]
  and seed42 =
    [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L; 0x0c4b6b24ef01890eL;
      0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L;
      0xc2bc249e28760ccdL; 0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L; 0xe2df09f8ccf26f14L;
      0xe664fb166d3dc14cL; 0x1494766cf71b64b6L; 0x09b78fbf46485568L; 0xda9e8d784db0c8f7L ]
  and child42 =
    [ 0x5599b3e06d073327L; 0xd6171d07a31128dfL; 0xed057ba08584c10bL; 0x9ea45beebee33b1cL;
      0xb0d03117ca5e86c7L; 0x1fee6a4909479ccfL; 0xede4bcce07480405L; 0x6b330122e9c444dbL;
      0xaa673561b50eddcaL; 0xab5322ea97c1f41bL; 0x906af08d9ac2e9deL; 0xc6f581110d62036aL;
      0xc203fe6568f1ba63L; 0xd8fbb83208656640L; 0xc8e4caa796a6cbabL; 0x262281a3c6095d58L ]
  in
  Alcotest.(check (list int64)) "seed 0" seed0 (first16 (Util.Rng.create 0));
  Alcotest.(check (list int64)) "seed 42" seed42 (first16 (Util.Rng.create 42));
  let parent = Util.Rng.create 42 in
  let child = Util.Rng.split parent in
  Alcotest.(check (list int64)) "split child" child42 (first16 child);
  (* [split] consumed the parent's first draw. *)
  Alcotest.(check (list int64)) "parent after split" (List.tl seed42)
    (List.init 15 (fun _ -> Util.Rng.int64 parent))

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Util.Rng.create seed in
      let x = Util.Rng.int rng bound in
      x >= 0 && x < bound)

let rng_float_bounds =
  QCheck.Test.make ~name:"rng float stays in bounds" ~count:500 QCheck.small_nat
    (fun seed ->
      let rng = Util.Rng.create seed in
      let x = Util.Rng.float rng 10.0 in
      x >= 0. && x < 10.)

let zipf_bounds =
  QCheck.Test.make ~name:"zipf index in range" ~count:300
    QCheck.(triple small_nat (int_range 1 200) (float_range 0. 1.5))
    (fun (seed, n, skew) ->
      let rng = Util.Rng.create seed in
      let x = Util.Rng.zipf rng ~n ~skew in
      x >= 0 && x < n)

let test_zipf_skew_prefers_small () =
  let rng = Util.Rng.create 1 in
  let hits = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Util.Rng.zipf rng ~n:10 ~skew:1.0 in
    hits.(i) <- hits.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 hit more than rank 9" true (hits.(0) > 2 * hits.(9))

let test_stats () =
  let s = Util.Stats.create () in
  List.iter (Util.Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Util.Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Util.Stats.mean s);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Util.Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Util.Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Util.Stats.max s);
  Alcotest.(check (float 1e-9)) "median-ish" 4.0 (Util.Stats.percentile s 50.)

let stats_merge_matches_sequential =
  QCheck.Test.make ~name:"stats merge equals sequential" ~count:200
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] && ys <> []);
      let a = Util.Stats.create () and b = Util.Stats.create () in
      List.iter (Util.Stats.add a) xs;
      List.iter (Util.Stats.add b) ys;
      let merged = Util.Stats.merge a b in
      let all = Util.Stats.create () in
      List.iter (Util.Stats.add all) (xs @ ys);
      Float.abs (Util.Stats.mean merged -. Util.Stats.mean all) < 1e-6
      && Float.abs (Util.Stats.stddev merged -. Util.Stats.stddev all) < 1e-6
      && Util.Stats.count merged = Util.Stats.count all)

let test_hdr_percentiles () =
  let h = Util.Hdr.create () in
  Alcotest.(check (float 0.)) "empty percentile" 0. (Util.Hdr.percentile h 50.);
  for i = 1 to 10_000 do
    Util.Hdr.add h (float_of_int i /. 10.)
  done;
  Alcotest.(check int) "count" 10_000 (Util.Hdr.count h);
  Alcotest.(check (float 1e-9)) "exact min" 0.1 (Util.Hdr.min_value h);
  Alcotest.(check (float 1e-9)) "exact max" 1000. (Util.Hdr.max_value h);
  Alcotest.(check (float 1e-9)) "p0 is min" 0.1 (Util.Hdr.percentile h 0.);
  Alcotest.(check (float 1e-9)) "p100 is max" 1000. (Util.Hdr.percentile h 100.);
  (* Uniform samples: each quoted quantile within the bucket error bound. *)
  List.iter
    (fun p ->
      let expected = p /. 100. *. 1000. in
      let got = Util.Hdr.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f (%.2f) within 3%% of %.2f" p got expected)
        true
        (Float.abs (got -. expected) /. expected < 0.03))
    [ 50.; 90.; 95.; 99. ];
  Util.Hdr.reset h;
  Alcotest.(check int) "reset zeroes count" 0 (Util.Hdr.count h)

let test_hdr_merge_and_clamp () =
  let a = Util.Hdr.create () and b = Util.Hdr.create () in
  List.iter (Util.Hdr.add a) [ 1.; 2.; 3. ];
  List.iter (Util.Hdr.add b) [ 100.; 200. ];
  Util.Hdr.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (Util.Hdr.count a);
  Alcotest.(check (float 1e-9)) "merged max" 200. (Util.Hdr.max_value a);
  (* NaN and negatives clamp to 0 instead of poisoning aggregates. *)
  let c = Util.Hdr.create () in
  Util.Hdr.add c Float.nan;
  Util.Hdr.add c (-5.);
  Alcotest.(check int) "clamped samples recorded" 2 (Util.Hdr.count c);
  Alcotest.(check (float 1e-9)) "clamped to zero" 0. (Util.Hdr.max_value c);
  let mismatched = Util.Hdr.create ~rel_error:0.05 () in
  Alcotest.check_raises "layout mismatch rejected"
    (Invalid_argument "Hdr.merge: incompatible layouts") (fun () ->
      Util.Hdr.merge ~into:a mismatched)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_table_render () =
  let t = Util.Table.create ~header:[ "name"; "value" ] in
  Util.Table.add_row t [ "alpha"; "1" ];
  Util.Table.add_row t [ "b" ];
  let rendered = Util.Table.render t in
  Alcotest.(check bool) "contains header" true (contains rendered "name");
  Alcotest.(check bool) "contains row" true (contains rendered "alpha");
  let csv = Util.Table.render_csv t in
  Alcotest.(check bool) "csv header" true (contains csv "name,value")

(* [Util.Itbl] against the generic [Hashtbl] as a model: a seeded mix of
   replaces and removes over dense, negative, extreme and low-bit-sharing
   keys.  After every op the touched key and the size agree; after the
   loop and after [reset], every key ever touched agrees. *)
let test_itbl_model () =
  let rng = Util.Rng.create 7 in
  let generic = Hashtbl.create 16 and itbl = Util.Itbl.create 16 in
  let special =
    [| 0; -1; -42; min_int; max_int; 1 lsl 31; (1 lsl 31) + 5; 1 lsl 40; -(1 lsl 33) |]
  in
  let touched = Hashtbl.create 16 in
  let agree what key =
    Alcotest.(check bool) (what ^ ": mem") (Hashtbl.mem generic key) (Util.Itbl.mem itbl key);
    Alcotest.(check (option int))
      (what ^ ": find_opt") (Hashtbl.find_opt generic key) (Util.Itbl.find_opt itbl key);
    Alcotest.(check int) (what ^ ": length") (Hashtbl.length generic) (Util.Itbl.length itbl)
  in
  let agree_all what = Hashtbl.iter (fun key () -> agree what key) touched in
  for i = 1 to 5000 do
    let key =
      match Util.Rng.int rng 3 with
      | 0 -> special.(Util.Rng.int rng (Array.length special))
      | 1 -> Util.Rng.int rng 300 - 150
      | _ -> Util.Rng.int rng 1_000_000_000 * 7
    in
    Hashtbl.replace touched key ();
    if Util.Rng.int rng 4 = 0 then begin
      Hashtbl.remove generic key;
      Util.Itbl.remove itbl key
    end
    else begin
      Hashtbl.replace generic key i;
      Util.Itbl.replace itbl key i
    end;
    agree "after op" key
  done;
  agree_all "after loop";
  Hashtbl.reset generic;
  Util.Itbl.reset itbl;
  List.iter
    (fun k ->
      Hashtbl.replace touched k ();
      Hashtbl.replace generic k k;
      Util.Itbl.replace itbl k k)
    [ 5; 1 lsl 35; -3; 77 ];
  agree_all "after reset"

(* [Util.Fifo_set] against a [Hashtbl] + [Queue] model, over caps that
   fill the table to its densest (a power of two), leave the ring part
   empty, or hold one member.  Keys come from a range about twice the cap,
   so members are re-added while present and after eviction, and small
   tables see long probe clusters that wrap past the end and deletions
   from their middle.  After every op the evicted id, the touched key and
   the size agree; after the loop and after [reset], every touched key
   agrees. *)
let test_fifo_set_model () =
  let none = Util.Fifo_set.none in
  List.iter
    (fun cap ->
      let rng = Util.Rng.create cap in
      let fifo = Util.Fifo_set.create cap in
      let order = Queue.create () and model = Hashtbl.create 16 in
      let touched = Hashtbl.create 16 in
      let model_replace k v =
        if Hashtbl.mem model k then begin
          Hashtbl.replace model k v;
          none
        end
        else begin
          let evicted =
            if Queue.length order = cap then begin
              let e = Queue.pop order in
              Hashtbl.remove model e;
              e
            end
            else none
          in
          Queue.push k order;
          Hashtbl.replace model k v;
          evicted
        end
      in
      let agree what key =
        let what = Printf.sprintf "cap %d, %s, key %d" cap what key in
        Alcotest.(check bool) (what ^ ": mem") (Hashtbl.mem model key) (Util.Fifo_set.mem fifo key);
        Alcotest.(check int)
          (what ^ ": find")
          (Option.value ~default:(-1) (Hashtbl.find_opt model key))
          (Util.Fifo_set.find fifo key ~default:(-1));
        Alcotest.(check int) (what ^ ": length") (Hashtbl.length model) (Util.Fifo_set.length fifo)
      in
      let agree_all what = Hashtbl.iter (fun key () -> agree what key) touched in
      let special = [| 0; -1; max_int; min_int + 1; 1 lsl 40; -(1 lsl 33) |] in
      for i = 1 to 20_000 do
        let key =
          if Util.Rng.int rng 10 = 0 then special.(Util.Rng.int rng (Array.length special))
          else Util.Rng.int rng ((2 * cap) + 3)
        in
        Hashtbl.replace touched key ();
        let what = Printf.sprintf "op %d" i in
        (match Util.Rng.int rng 3 with
        | 0 ->
          Alcotest.(check int) (what ^ ": add evicts") (model_replace key 0)
            (Util.Fifo_set.add fifo key)
        | 1 ->
          Alcotest.(check int) (what ^ ": replace evicts") (model_replace key i)
            (Util.Fifo_set.replace fifo key i)
        | _ -> ());
        agree what key
      done;
      agree_all "after loop";
      Util.Fifo_set.reset fifo;
      Queue.clear order;
      Hashtbl.reset model;
      agree_all "after reset";
      for key = 0 to (2 * cap) + 1 do
        Hashtbl.replace touched key ();
        Alcotest.(check int) "refill evicts" (model_replace key key)
          (Util.Fifo_set.replace fifo key key)
      done;
      agree_all "after refill")
    [ 1; 8; 37; 64 ];
  Alcotest.check_raises "min_int is not a member"
    (Invalid_argument "Fifo_set: min_int is not a valid member")
    (fun () -> ignore (Util.Fifo_set.add (Util.Fifo_set.create 4) min_int));
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Fifo_set.create: cap must be positive")
    (fun () -> ignore (Util.Fifo_set.create 0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      rng_bounds;
      rng_float_bounds;
      zipf_bounds;
      stats_merge_matches_sequential;
    ]

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng stream pinned" `Quick test_rng_pinned;
    Alcotest.test_case "zipf skew shape" `Quick test_zipf_skew_prefers_small;
    Alcotest.test_case "stats accumulators" `Quick test_stats;
    Alcotest.test_case "hdr percentiles" `Quick test_hdr_percentiles;
    Alcotest.test_case "hdr merge and clamp" `Quick test_hdr_merge_and_clamp;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "itbl agrees with Hashtbl model" `Quick test_itbl_model;
    Alcotest.test_case "fifo_set agrees with Hashtbl and Queue model" `Quick test_fifo_set_model;
  ]
  @ qcheck_cases
