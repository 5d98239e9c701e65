(* Per-domain event buffers merged into one Chrome trace_event document.

   Each domain that records a span gets its own growable event array,
   created on first use and registered (under a mutex, once per domain)
   in a global list; recording afterwards is plain appends to domain-local
   state.  [export] walks the registered buffers after the pool domains have
   drained — the engine only exports once its pool batches have joined, so
   no synchronization with in-flight writers is needed. *)

type ev =
  | Ev_b of { ts : int; name : string; cat : string; args : (string * string) list }
  | Ev_e of { ts : int; name : string }

type buf = {
  tid : int;
  main : bool;
  mutable evs : ev array;
  mutable len : int;
  mutable depth : int;
}

let dummy = Ev_e { ts = 0; name = "" }

let buffers : buf list ref = ref []
let buffers_mutex = Mutex.create ()

let epoch_ns = Atomic.make 0

external raw_now_ns : unit -> int = "uhc_obs_monotonic_ns" [@@noalloc]
(* CLOCK_MONOTONIC, so per-track timestamps can't go backwards under
   clock adjustment (wall time stays only in run-id timestamps). *)

let () = Atomic.set epoch_ns (raw_now_ns ())

let now_ns () = raw_now_ns () - Atomic.get epoch_ns

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = (Domain.self () :> int);
          main = Domain.is_main_domain ();
          evs = Array.make 256 dummy;
          len = 0;
          depth = 0;
        }
      in
      Mutex.lock buffers_mutex;
      buffers := b :: !buffers;
      Mutex.unlock buffers_mutex;
      b)

let push b ev =
  if b.len = Array.length b.evs then begin
    let evs = Array.make (2 * b.len) dummy in
    Array.blit b.evs 0 evs 0 b.len;
    b.evs <- evs
  end;
  b.evs.(b.len) <- ev;
  b.len <- b.len + 1

let begin_ ~name ~cat ~attrs =
  let b = Domain.DLS.get buf_key in
  let attrs = ("depth", string_of_int b.depth) :: attrs in
  b.depth <- b.depth + 1;
  push b (Ev_b { ts = now_ns (); name; cat; args = attrs })

let end_ ~name =
  let b = Domain.DLS.get buf_key in
  b.depth <- (if b.depth > 0 then b.depth - 1 else 0);
  push b (Ev_e { ts = now_ns (); name })

let clear () =
  Mutex.lock buffers_mutex;
  List.iter
    (fun b ->
      b.len <- 0;
      b.depth <- 0)
    !buffers;
  Mutex.unlock buffers_mutex;
  Atomic.set epoch_ns (raw_now_ns ())

let snapshot_buffers () =
  Mutex.lock buffers_mutex;
  let bs = !buffers in
  Mutex.unlock buffers_mutex;
  List.sort (fun a b -> compare a.tid b.tid) bs

let us_of_ns ns = float_of_int ns /. 1e3

let export () =
  let b = Buffer.create 65536 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [";
  let first = ref true in
  List.iter
    (fun buf ->
      if buf.len > 0 then begin
        (if !first then first := false else bpf ",");
        bpf
          "\n  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \
           \"tid\": %d, \"args\": {\"name\": \"%s\"}}"
          buf.tid
          (if buf.main then "main" else Printf.sprintf "worker-%d" buf.tid);
        for i = 0 to buf.len - 1 do
          match buf.evs.(i) with
          | Ev_b { ts; name; cat; args } ->
            bpf
              ",\n  {\"ph\": \"B\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d, \
               \"name\": \"%s\", \"cat\": \"%s\", \"args\": {"
              (us_of_ns ts) buf.tid (Json.escape name) (Json.escape cat);
            List.iteri
              (fun j (k, v) ->
                if j > 0 then bpf ", ";
                bpf "\"%s\": \"%s\"" (Json.escape k) (Json.escape v))
              args;
            bpf "}}"
          | Ev_e { ts; name } ->
            bpf
              ",\n  {\"ph\": \"E\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d, \
               \"name\": \"%s\"}"
              (us_of_ns ts) buf.tid (Json.escape name)
        done
      end)
    (snapshot_buffers ());
  bpf "\n]}\n";
  Buffer.contents b

let save ~path =
  let oc = open_out_bin path in
  output_string oc (export ());
  close_out oc

(* ------------------------------------------------------------------ *)
(* Parsing a trace file back into paired spans *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_ts_us : float;
  sp_dur_us : float;
  sp_depth : int;
  sp_args : (string * string) list;
}

type open_span = {
  os_name : string;
  os_cat : string;
  os_ts : float;
  os_args : (string * string) list;
}

let parse text =
  match Json.parse text with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok root -> (
    match Option.bind (Json.member "traceEvents" root) Json.to_list with
    | None -> Error "no \"traceEvents\" array"
    | Some events -> (
      let tracks : (int, float * open_span list) Hashtbl.t =
        Hashtbl.create 8
      in
      let out = ref [] in
      let err = ref None in
      let fail i msg =
        if !err = None then
          err := Some (Printf.sprintf "event %d: %s" i msg)
      in
      List.iteri
        (fun i ev ->
          if !err = None then begin
            let str k = Option.bind (Json.member k ev) Json.to_string in
            let num k = Option.bind (Json.member k ev) Json.to_float in
            match str "ph" with
            | None -> fail i "missing \"ph\""
            | Some "M" -> ()
            | Some (("B" | "E") as ph) -> (
              match (num "ts", Option.bind (Json.member "tid" ev) Json.to_int)
              with
              | None, _ -> fail i "missing numeric \"ts\""
              | _, None -> fail i "missing integer \"tid\""
              | Some ts, Some tid -> (
                let last, stack =
                  match Hashtbl.find_opt tracks tid with
                  | Some s -> s
                  | None -> (neg_infinity, [])
                in
                if ts < last then
                  fail i
                    (Printf.sprintf "timestamps not monotone on track %d" tid)
                else
                  let name = Option.value (str "name") ~default:"" in
                  match ph with
                  | "B" ->
                    let args =
                      match Json.member "args" ev with
                      | Some (Json.Obj kvs) ->
                        List.filter_map
                          (fun (k, v) ->
                            Option.map (fun s -> (k, s)) (Json.to_string v))
                          kvs
                      | _ -> []
                    in
                    Hashtbl.replace tracks tid
                      ( ts,
                        { os_name = name; os_cat =
                            Option.value (str "cat") ~default:"";
                          os_ts = ts; os_args = args }
                        :: stack )
                  | _ -> (
                    match stack with
                    | [] ->
                      fail i
                        (Printf.sprintf "unmatched end %S on track %d" name
                           tid)
                    | top :: rest ->
                      if name <> "" && name <> top.os_name then
                        fail i
                          (Printf.sprintf
                             "end %S does not match open span %S" name
                             top.os_name)
                      else begin
                        out :=
                          {
                            sp_name = top.os_name;
                            sp_cat = top.os_cat;
                            sp_tid = tid;
                            sp_ts_us = top.os_ts;
                            sp_dur_us = ts -. top.os_ts;
                            sp_depth = List.length rest;
                            sp_args = top.os_args;
                          }
                          :: !out;
                        Hashtbl.replace tracks tid (ts, rest)
                      end)))
            | Some other -> fail i (Printf.sprintf "unknown ph %S" other)
          end)
        events;
      (match !err with
      | None ->
        Hashtbl.iter
          (fun tid (_, stack) ->
            match stack with
            | [] -> ()
            | top :: _ ->
              if !err = None then
                err :=
                  Some
                    (Printf.sprintf "span %S left open on track %d"
                       top.os_name tid))
          tracks
      | Some _ -> ());
      match !err with
      | Some e -> Error e
      | None ->
        Ok
          (List.sort
             (fun a b -> compare (a.sp_ts_us, a.sp_tid) (b.sp_ts_us, b.sp_tid))
             !out)))

let load ~path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | s -> parse s
  | exception Sys_error e -> Error e
