open Cachesec_analysis
open Cachesec_report

let edge_table ~title ~labels rows =
  let headers = ("Cache" :: labels) @ [ "PAS" ] in
  let body =
    List.map
      (fun (r : Pas_tables.row) ->
        r.arch
        :: (List.map
              (fun l -> Table.fmt_prob (Edge_probs.find r.edges l))
              labels
           @ [ Table.fmt_prob r.pas ]))
      rows
  in
  title ^ "\n" ^ Table.render ~headers ~rows:body ()

let table3 () =
  edge_table
    ~title:
      "Table 3: Conditional probabilities and PAS, evict-and-time (Type 1)"
    ~labels:[ "p1"; "p2"; "p3"; "p4"; "p5" ]
    (Pas_tables.table3 ())

let table5 () =
  edge_table
    ~title:"Table 5: Conditional probabilities and PAS, cache collision (Type 3)"
    ~labels:[ "p0"; "p4"; "p5" ]
    (Pas_tables.table5 ())

let table6 () =
  let computed = Pas_tables.table6 () in
  let headers =
    [
      "Cache";
      "Type 1";
      "Type 2";
      "Type 3";
      "Type 4";
      "paper T1";
      "paper T2";
      "paper T3";
      "paper T4";
    ]
  in
  let rows =
    List.map
      (fun (r : Pas_tables.table6_row) ->
        let paper =
          match List.assoc_opt r.arch6 Pas_tables.paper_table6 with
          | Some a -> Array.to_list (Array.map Table.fmt_prob a)
          | None -> [ "?"; "?"; "?"; "?" ]
        in
        (r.arch6 :: Array.to_list (Array.map Table.fmt_prob r.pas_by_type))
        @ paper)
      computed
  in
  "Table 6: PAS of four attack types for 9 cache architectures (computed vs paper)\n"
  ^ Table.render ~headers ~rows ()

let table7 () =
  let computed = Resilience.table7 () in
  let headers =
    [ "Cache"; "T1"; "T2"; "T3"; "T4"; "paper"; "match" ]
  in
  let marks vs =
    String.concat " " (Array.to_list (Array.map Resilience.verdict_mark vs))
  in
  let rows =
    List.map
      (fun (arch, vs) ->
        let paper = List.assoc_opt arch Resilience.paper_table7 in
        let paper_s = match paper with Some p -> marks p | None -> "?" in
        let agree =
          match paper with Some p -> if p = vs then "yes" else "NO" | None -> "?"
        in
        (arch :: Array.to_list (Array.map Resilience.verdict_mark vs))
        @ [ paper_s; agree ])
      computed
  in
  "Table 7: Resilience classification (Y = high resilience, X = low)\n"
  ^ Table.render ~headers ~rows ()

let table6_csv_rows () =
  List.concat_map
    (fun (r : Pas_tables.table6_row) ->
      let paper = List.assoc_opt r.arch6 Pas_tables.paper_table6 in
      List.mapi
        (fun i attack ->
          [
            r.arch6;
            Attack_type.name attack;
            Printf.sprintf "%.6g" r.pas_by_type.(i);
            (match paper with
            | Some a -> Printf.sprintf "%.6g" a.(i)
            | None -> "");
          ])
        Attack_type.all)
    (Pas_tables.table6 ())

(* The model is parametric: the same machinery at a different design
   point. 16 KB, 4-way, 256 lines; Nomo reserves 1 of 4 ways, RF keeps
   the paper's window, RE stays direct-mapped. *)
let table6_alt_geometry () =
  let open Cachesec_cache in
  let config = Config.v ~line_bytes:64 ~lines:256 ~ways:4 in
  let specs =
    [
      Spec.Sa { ways = 4; policy = Policy.Random };
      Spec.Sp { ways = 4; policy = Policy.Random; partitions = 2 };
      Spec.Pl { ways = 4; policy = Policy.Random };
      Spec.Nomo { ways = 4; policy = Policy.Random; reserved = 1 };
      Spec.Newcache { extra_bits = 4 };
      Spec.Rp { ways = 4; policy = Policy.Random };
      Spec.Rf { ways = 4; policy = Policy.Random; back = 64; fwd = 64 };
      Spec.Re { ways = 1; policy = Policy.Random; interval = 10 };
      Spec.Noisy { ways = 4; policy = Policy.Random; sigma = 1.0 };
    ]
  in
  let rows =
    List.map
      (fun spec ->
        Spec.display_name spec
        :: List.map
             (fun attack ->
               Table.fmt_prob (Attack_models.pas ~config attack spec ()))
             Attack_type.all)
      specs
  in
  "Table 6 recomputed at a different design point (16 KB, 4-way, 256\n\
   lines) - the generality the paper claims: same model, new numbers,\n\
   same qualitative ranking.\n"
  ^ Table.render
      ~headers:[ "Cache"; "Type 1"; "Type 2"; "Type 3"; "Type 4" ]
      ~rows ()

let policy_resilience ?threshold ?specs ?policies () =
  let open Cachesec_cache in
  let matrix = Resilience.policy_matrix ?threshold ?specs ?policies () in
  let headers =
    [ "Cache"; "Policy"; "T1"; "T2"; "T3"; "T4"; "limit"; "max bits" ]
  in
  let rows =
    List.concat_map
      (fun (spec, by_policy) ->
        List.map
          (fun (policy, cells) ->
            (* All miss-based cells of a row share the same cleaning
               limit; the first cell is evict-and-time. *)
            let limit =
              match cells with c :: _ -> c.Resilience.limit | [] -> nan
            in
            let max_bits =
              List.fold_left
                (fun acc (c : Resilience.policy_cell) -> Float.max acc c.bits)
                0. cells
            in
            [ Spec.display_name spec; Policy.to_string policy ]
            @ List.map
                (fun (c : Resilience.policy_cell) ->
                  Printf.sprintf "%s %s" (Table.fmt_prob c.effective)
                    (Resilience.verdict_mark c.verdict))
                cells
            @ [ Table.fmt_prob limit; Printf.sprintf "%.3f" max_bits ])
          by_policy)
      matrix
  in
  "Policy resilience: effective PAS per replacement policy (Y = high\n\
   resilience, X = low). Miss-based types (T1/T2) are gated by the\n\
   k->inf cleaning limit; 'max bits' is the worst-case absorbed\n\
   information per observation across the four attack types.\n"
  ^ Table.render ~headers ~rows ()

let policy_resilience_csv_rows () =
  let open Cachesec_cache in
  List.concat_map
    (fun (spec, by_policy) ->
      List.concat_map
        (fun (policy, cells) ->
          List.map
            (fun (c : Resilience.policy_cell) ->
              [
                Spec.name spec;
                Policy.to_string policy;
                Attack_type.name c.attack;
                Printf.sprintf "%.6g" c.pas;
                Printf.sprintf "%.6g" c.limit;
                Printf.sprintf "%.6g" c.effective;
                Printf.sprintf "%.6g" c.bits;
                Resilience.verdict_to_string c.verdict;
              ])
            cells)
        by_policy)
    (Resilience.policy_matrix ())

let all () =
  String.concat "\n" [ table3 (); table5 (); table6 (); table7 () ]
