(* Facade over the compiled-plan machinery in {!Pipeline}; the
   implementation lives there because the plan bakes in Pipeline's config
   and counts types. *)

type plan = Pipeline.plan

let compile = Pipeline.compile

type data_side = Pipeline.data_side

let data_side = Pipeline.data_side
let run = Pipeline.replay
let with_config = Pipeline.plan_with_config
let config = Pipeline.plan_config
let trace = Pipeline.plan_trace
let blocks = Pipeline.plan_blocks
let mem_events = Pipeline.plan_mem_events
let words = Pipeline.plan_words

type batch = Pipeline.batch

let batch_of = Pipeline.batch_of
let cache_batch_of = Pipeline.cache_batch_of
let batch_axis = Pipeline.batch_axis
let batch_lanes = Pipeline.batch_lanes
let batch_names = Pipeline.batch_names
let batch_src = Pipeline.batch_src
let batch_fallback = Pipeline.batch_fallback
let batch_table_bytes = Pipeline.batch_table_bytes
let select = Pipeline.batch_select
let shard = Pipeline.batch_shard
let run_many = Pipeline.replay_many
