(* Content-addressed compilation artifacts: key fingerprints plus a
   generic keyed store (docs/CACHING.md).

   Keys are the invalidation mechanism of the compilation sessions in
   Longnail.Flow: equal key => the stage would recompute an identical
   artifact. A CoreDSL unit is keyed by the digest of the source bytes
   its elaboration read (Coredsl.Elaborate); [Fp] supplies the canonical
   serialization for everything else a key folds in — datasheets, knobs,
   caller-supplied frontend keys — and never uses [Hashtbl.hash], which
   is neither stable nor total. *)

module Fp = struct
  type t = string

  type ctx = Buffer.t

  let create () = Buffer.create 4096

  (* Tags delimit constructors, length prefixes make strings
     self-delimiting: the serialization is prefix-free, so structurally
     different values cannot collide by concatenation. *)
  let add_tag b s =
    Buffer.add_char b '\x01';
    Buffer.add_string b s;
    Buffer.add_char b '\x02'

  let add_string b s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s

  let add_int b i =
    Buffer.add_char b 'i';
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ';'

  let add_bool b v = Buffer.add_char b (if v then 'T' else 'F')

  (* %h is exact (hex mantissa/exponent): distinct floats never merge *)
  let add_float b f =
    Buffer.add_char b 'f';
    Buffer.add_string b (Printf.sprintf "%h" f);
    Buffer.add_char b ';'

  let add_opt add b = function
    | None -> Buffer.add_char b 'N'
    | Some v ->
        Buffer.add_char b 'S';
        add b v

  let add_list add b l =
    add_int b (List.length l);
    List.iter (add b) l

  let finish b = Digest.to_hex (Digest.string (Buffer.contents b))

  let digest f =
    let b = create () in
    f b;
    finish b

  (* ---- virtual datasheets ---- *)

  let datasheet (c : Scaiev.Datasheet.t) =
    digest (fun b ->
        add_tag b "datasheet";
        add_string b c.core_name;
        add_int b c.pipeline_stages;
        add_bool b c.is_fsm;
        add_int b c.operand_stage;
        add_int b c.memory_stage;
        add_int b c.writeback_stage;
        add_bool b c.forwarding_from_writeback;
        add_list
          (fun b (n, (w : Scaiev.Datasheet.window)) ->
            add_string b n;
            add_int b w.earliest;
            add_opt add_int b w.native_latest;
            add_int b w.latency)
          b c.ifaces;
        add_float b c.base_area_um2;
        add_float b c.base_freq_mhz)
end

(* The persistent on-disk sibling of [Store]; implementation in disk.ml. *)
module Disk = Disk

module Store = struct
  type stats = { hits : int; misses : int; stores : int; evictions : int }

  type 'v entry = { value : 'v; mutable last_use : int }

  (* Thread-safety: every field is guarded by [lock]. Lookups from
     several domains are {e single-flight}: the first domain to miss a
     key claims it in [pending] and computes with the lock released;
     concurrent lookups of the same key park on [resolved] and are
     served the stored value when the computation lands (counted as
     hits — exactly one store per key). [compute] itself always runs
     outside the lock, so independent keys never serialize on each
     other. *)
  type 'v t = {
    st_name : string;
    capacity : int;
    lock : Mutex.t;
    resolved : Condition.t;
    tbl : (string, 'v entry) Hashtbl.t;
    pending : (string, unit) Hashtbl.t;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable stores : int;
    mutable evictions : int;
  }

  let create ?(capacity = 512) ~name () =
    {
      st_name = name;
      capacity = max 0 capacity;
      lock = Mutex.create ();
      resolved = Condition.create ();
      tbl = Hashtbl.create (min 64 (max 8 capacity));
      pending = Hashtbl.create 8;
      clock = 0;
      hits = 0;
      misses = 0;
      stores = 0;
      evictions = 0;
    }

  let name t = t.st_name
  let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

  let stats t =
    Mutex.protect t.lock (fun () ->
        { hits = t.hits; misses = t.misses; stores = t.stores; evictions = t.evictions })

  let mem t key = Mutex.protect t.lock (fun () -> Hashtbl.mem t.tbl key)

  let evict_lru t =
    let worst =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, lu) when lu <= e.last_use -> acc
          | _ -> Some (k, e.last_use))
        t.tbl None
    in
    match worst with
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        t.evictions <- t.evictions + 1
    | None -> ()

  let find_or_add t ?obs key compute =
    (* all three counters are always materialized so the profiling
       metric-name schema is identical on cold and warm paths *)
    Obs.incr_opt obs "cache.hit" ~by:0 ();
    Obs.incr_opt obs "cache.miss" ~by:0 ();
    Obs.incr_opt obs "cache.store" ~by:0 ();
    Mutex.lock t.lock;
    let rec claim () =
      t.clock <- t.clock + 1;
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          e.last_use <- t.clock;
          t.hits <- t.hits + 1;
          `Hit e.value
      | None ->
          if Hashtbl.mem t.pending key then begin
            (* another domain is computing this key: wait for it rather
               than duplicating the work, then re-check (the computation
               may have failed, or the entry may not have been retained
               by a capacity-0 store — in both cases we claim it) *)
            Condition.wait t.resolved t.lock;
            claim ()
          end
          else begin
            Hashtbl.add t.pending key ();
            t.misses <- t.misses + 1;
            `Compute
          end
    in
    let outcome = claim () in
    Mutex.unlock t.lock;
    match outcome with
    | `Hit v ->
        Obs.incr_opt obs "cache.hit" ();
        v
    | `Compute -> (
        Obs.incr_opt obs "cache.miss" ();
        match compute () with
        | v ->
            Mutex.lock t.lock;
            Hashtbl.remove t.pending key;
            if t.capacity > 0 then begin
              while Hashtbl.length t.tbl >= t.capacity do
                evict_lru t
              done;
              Hashtbl.replace t.tbl key { value = v; last_use = t.clock };
              t.stores <- t.stores + 1
            end;
            Condition.broadcast t.resolved;
            let stored = t.capacity > 0 in
            Mutex.unlock t.lock;
            if stored then Obs.incr_opt obs "cache.store" ();
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.lock;
            Hashtbl.remove t.pending key;
            Condition.broadcast t.resolved;
            Mutex.unlock t.lock;
            Printexc.raise_with_backtrace e bt)

  let record_stats t (obs : Obs.scope) =
    let s = stats t in
    Obs.metric_int obs (t.st_name ^ ".hits") s.hits;
    Obs.metric_int obs (t.st_name ^ ".misses") s.misses;
    Obs.metric_int obs (t.st_name ^ ".stores") s.stores;
    Obs.metric_int obs (t.st_name ^ ".evictions") s.evictions
end
