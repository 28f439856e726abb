// The benchmark is a module of its own so that the repository's
// `go build ./...`, `go test ./...` and `go vet ./...` never include it.
// Its import path sits under seda/, which is what lets it import
// seda/internal/... through the replace below.
module seda/bench

go 1.24

require seda v0.0.0

replace seda => ../
