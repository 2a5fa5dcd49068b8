(* Traced-run probes for layers no path's span trees cover: each times
   calls into the layer's public functions from here, on a fixed input. *)

open Common

let vexriscv = Scaiev.Datasheet.vexriscv

(* Compile every bundled ISAX for VexRiscv under [knobs], traced; returns
   the per-target mean self time of each span name and the roots. *)
let traced_grid knobs =
  let spans = Hashtbl.create 64 and roots = ref [] in
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let obs = Obs.create ~name:"compile" () in
      let session = Longnail.Flow.create_session () in
      ignore
        (Longnail.Flow.compile_outputs
           (Longnail.Flow.Request.make ~knobs ~session ~obs ())
           vexriscv (Isax.Registry.compile e));
      Obs.finish obs;
      roots := Obs.root obs :: !roots;
      add_self_times spans (Obs.root obs))
    Isax.Registry.all;
  let n = float_of_int (List.length Isax.Registry.all) in
  let self name = Option.value (Hashtbl.find_opt spans name) ~default:0.0 /. n in
  (self, !roots, n)

let analysis () =
  let units = List.map Isax.Registry.compile Isax.Registry.all in
  let (), lint_s = timed (fun () -> List.iter (fun tu -> ignore (Analysis.Lint.lint_unit tu)) units) in
  let self, roots, n = traced_grid (Longnail.Flow.knobs ~narrow:true ()) in
  [
    m "analysis.lint_ms" "ms" (1e3 *. lint_s /. float_of_int (List.length units));
    m "analysis.narrow_ms" "ms" (self "narrow");
    m "analysis.tv_vectors" "count" (sum (List.map (fun r -> sum_metric r ~span:"narrow" "tv_vectors") roots) /. n);
  ]

let emit_v2001 () =
  let self, _, _ = traced_grid (Longnail.Flow.knobs ~backend:Rtl.Backend.V2001 ()) in
  [ m "rtl.emit_ms.v2001" "ms" (self "sv_emit") ]

(* One single-core DSE sweep on sparkle: warm-start solver counters, the
   number of points and the time of each ASIC-flow measurement. *)
let dse () =
  let asic = ref [] in
  let measure c =
    let r, s = timed (fun () -> Asic.Flow.run ~isax_name:"sparkle" c) in
    asic := s :: !asic;
    (r.Asic.Flow.area_overhead_pct, r.Asic.Flow.achieved_freq_mhz)
  in
  let session = Longnail.Flow.create_session () in
  let points =
    Longnail.Dse.explore
      ~request:(Longnail.Flow.Request.make ~session ())
      ~measure vexriscv
      (Isax.Registry.compile_by_name "sparkle")
  in
  let st = Longnail.Flow.session_solver_stats session in
  [
    m "lp.warm_hit_ratio" "ratio"
      (ratio (float_of_int st.Lp.Instance.is_warm_hits) (float_of_int st.Lp.Instance.is_resolves));
    m "longnail.dse_points" "count" (float_of_int (List.length points));
    m "asic.run_ms" "ms" (1e3 *. mean !asic);
  ]

(* Store and find every bundled ISAX's VexRiscv artifacts in a fresh store. *)
let disk tmp =
  let d = Cache.Disk.open_store (Filename.concat tmp "disk_probe") in
  let payloads =
    List.map
      (fun (e : Isax.Registry.entry) ->
        let o =
          Longnail.Flow.compile_outputs Longnail.Flow.Request.default vexriscv (Isax.Registry.compile e)
        in
        (e.name, Compile_cold.contribution e.name o))
      Isax.Registry.all
  in
  let store_s = List.map (fun (k, p) -> snd (timed (fun () -> Cache.Disk.store d k p))) payloads in
  let find_s =
    List.map
      (fun (k, p) ->
        let got, s = timed (fun () -> Cache.Disk.find d k) in
        if got <> Some p then failwith ("disk probe: entry " ^ k ^ " did not round-trip");
        s)
      payloads
  in
  [
    m "cache.disk.store_ms" "ms" (1e3 *. median store_s);
    m "cache.disk.find_ms" "ms" (1e3 *. median find_s);
  ]

let all tmp = analysis () @ emit_v2001 () @ dse () @ disk tmp
