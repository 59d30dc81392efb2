(* Read [slocal.trace/5] JSONL traces back into Telemetry events. *)

let schema_version = Telemetry.trace_schema_version

type read_result = {
  events : Telemetry.event list;
  skipped : int;
  schema : string option;
}

let int64_field j k =
  match Option.bind (Json.member k j) Json.as_int with
  | Some v -> Ok (Int64.of_int v)
  | None -> Error (Printf.sprintf "missing integer field %S" k)

let int_field j k =
  match Option.bind (Json.member k j) Json.as_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing integer field %S" k)

let string_field j k =
  match Option.bind (Json.member k j) Json.as_string with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing string field %S" k)

let int_values j k =
  match Option.bind (Json.member k j) Json.as_obj with
  | None -> Error (Printf.sprintf "missing object field %S" k)
  | Some kvs ->
      List.fold_left
        (fun acc (nm, v) ->
          match (acc, Json.as_int v) with
          | (Error _ as e), _ -> e
          | Ok acc, Some v -> Ok ((nm, v) :: acc)
          | Ok _, None ->
              Error (Printf.sprintf "non-integer value for %S in %S" nm k))
        (Ok []) kvs
      |> Result.map List.rev

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let event_of_json j : (Telemetry.event, string) result =
  let* kind = string_field j "kind" in
  match kind with
  | "trace_start" ->
      let* t_ns = int64_field j "t_ns" in
      Ok (Telemetry.Trace_start { t_ns })
  | "span_open" ->
      let* id = int_field j "id" in
      let* name = string_field j "name" in
      let* t_ns = int64_field j "t_ns" in
      let parent =
        match Json.member "parent" j with
        | Some (Json.Int p) -> Some p
        | _ -> None
      in
      Ok (Telemetry.Span_open { id; parent; name; t_ns })
  | "span_close" ->
      let* id = int_field j "id" in
      let* name = string_field j "name" in
      let* t_ns = int64_field j "t_ns" in
      let* dur_ns = int64_field j "dur_ns" in
      let* alloc_b = int_field j "alloc_b" in
      let* minor_n = int_field j "minor_n" in
      let* major_n = int_field j "major_n" in
      Ok
        (Telemetry.Span_close
           { id; name; t_ns; dur_ns; alloc_b; minor_n; major_n })
  | "counters" ->
      let* t_ns = int64_field j "t_ns" in
      let* values = int_values j "values" in
      Ok (Telemetry.Counters { t_ns; values })
  | "histograms" ->
      let* t_ns = int64_field j "t_ns" in
      let* kvs =
        match Option.bind (Json.member "values" j) Json.as_obj with
        | Some kvs -> Ok kvs
        | None -> Error "missing object field \"values\""
      in
      let* values =
        List.fold_left
          (fun acc (nm, hj) ->
            let* acc = acc in
            let* h = Telemetry.histogram_of_json hj in
            Ok ((nm, h) :: acc))
          (Ok []) kvs
      in
      Ok (Telemetry.Histograms { t_ns; values = List.rev values })
  | "provenance" ->
      let* t_ns = int64_field j "t_ns" in
      let* step = int_field j "step" in
      let* label = string_field j "label" in
      let* values = int_values j "values" in
      Ok (Telemetry.Provenance { t_ns; step; label; values })
  | "message" ->
      let* t_ns = int64_field j "t_ns" in
      let* text = string_field j "text" in
      Ok (Telemetry.Message { t_ns; text })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

let parse_line line =
  match Json.of_string line with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok j -> event_of_json j

let read_channel ic =
  let events = ref [] and skipped = ref 0 and schema = ref None in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         match Json.of_string line with
         | Error _ -> incr skipped
         | Ok j -> (
             match event_of_json j with
             | Error _ -> incr skipped
             | Ok ev ->
                 (match ev with
                 | Telemetry.Trace_start _ when !schema = None ->
                     schema :=
                       Option.bind (Json.member "schema" j) Json.as_string
                 | _ -> ());
                 events := ev :: !events)
       end
     done
   with End_of_file -> ());
  { events = List.rev !events; skipped = !skipped; schema = !schema }

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
